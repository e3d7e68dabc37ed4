"""Simulated data packets with a real byte-level codec.

A :class:`Packet` carries the header fields the OpenFlow match subset can
see (Ethernet, optional 802.1Q tag, IPv4, TCP/UDP/ICMP).  ``to_bytes`` /
``from_bytes`` implement the actual header layouts -- including the IPv4
checksum -- so PacketIn/PacketOut frames carry plausible bytes and the
codec can be property-tested for round-trips.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import OpenFlowError
from repro.openflow.constants import (
    ETH_TYPE_IP,
    ETH_TYPE_VLAN,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
)
from repro.openflow.match import int_to_ip, ip_to_int, mac_to_bytes, bytes_to_mac


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 ones-complement checksum over a (padded) header."""
    if len(header) % 2:
        header += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", header):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass(frozen=True)
class Packet:
    """One simulated data packet (defaults describe h1 -> h2 TCP traffic)."""

    eth_src: str = "00:00:00:00:00:01"
    eth_dst: str = "00:00:00:00:00:02"
    eth_type: int = ETH_TYPE_IP
    vlan_vid: int | None = None
    ipv4_src: str = "10.0.0.1"
    ipv4_dst: str = "10.0.0.2"
    ip_proto: int = IP_PROTO_TCP
    ttl: int = 64
    tcp_src: int = 40000
    tcp_dst: int = 80
    payload: bytes = b""

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def fields(self, in_port: int | None = None) -> dict[str, Any]:
        """Header fields as the flow-table matcher sees them."""
        result: dict[str, Any] = {
            "eth_src": self.eth_src,
            "eth_dst": self.eth_dst,
            "eth_type": self.eth_type,
            "ipv4_src": self.ipv4_src,
            "ipv4_dst": self.ipv4_dst,
            "ip_proto": self.ip_proto,
        }
        if in_port is not None:
            result["in_port"] = in_port
        if self.vlan_vid is not None:
            result["vlan_vid"] = self.vlan_vid
        if self.ip_proto == IP_PROTO_TCP:
            result["tcp_src"] = self.tcp_src
            result["tcp_dst"] = self.tcp_dst
        elif self.ip_proto == IP_PROTO_UDP:
            result["udp_src"] = self.tcp_src
            result["udp_dst"] = self.tcp_dst
        return result

    # ------------------------------------------------------------------
    # header rewriting (SET_FIELD / VLAN actions)
    # ------------------------------------------------------------------
    def with_field(self, name: str, value: Any) -> "Packet":
        """A copy with one matchable field rewritten."""
        direct = {
            "eth_src", "eth_dst", "eth_type", "vlan_vid",
            "ipv4_src", "ipv4_dst", "ip_proto", "ttl",
        }
        if name in direct:
            return replace(self, **{name: value})
        if name in ("tcp_src", "udp_src"):
            return replace(self, tcp_src=int(value))
        if name in ("tcp_dst", "udp_dst"):
            return replace(self, tcp_dst=int(value))
        raise OpenFlowError(f"cannot rewrite field {name!r}")

    def with_vlan(self, vid: int) -> "Packet":
        return replace(self, vlan_vid=vid)

    def without_vlan(self) -> "Packet":
        return replace(self, vlan_vid=None)

    # ------------------------------------------------------------------
    # byte codec
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to Ethernet [+802.1Q] + IPv4 + L4 bytes."""
        out = bytearray()
        out += mac_to_bytes(self.eth_dst)
        out += mac_to_bytes(self.eth_src)
        if self.vlan_vid is not None:
            out += struct.pack("!HH", ETH_TYPE_VLAN, self.vlan_vid & 0x0FFF)
        out += struct.pack("!H", self.eth_type)
        if self.eth_type != ETH_TYPE_IP:
            return bytes(out + self.payload)
        l4 = self._l4_bytes()
        total_len = 20 + len(l4)
        header_wo_csum = struct.pack(
            "!BBHHHBBH4s4s",
            0x45, 0, total_len, 0, 0, self.ttl, self.ip_proto, 0,
            struct.pack("!I", ip_to_int(self.ipv4_src)),
            struct.pack("!I", ip_to_int(self.ipv4_dst)),
        )
        checksum = ipv4_checksum(header_wo_csum)
        header = header_wo_csum[:10] + struct.pack("!H", checksum) + header_wo_csum[12:]
        return bytes(out) + header + l4

    def _l4_bytes(self) -> bytes:
        if self.ip_proto == IP_PROTO_TCP:
            return (
                struct.pack(
                    "!HHIIBBHHH",
                    self.tcp_src, self.tcp_dst, 0, 0, 5 << 4, 0x18, 0xFFFF, 0, 0,
                )
                + self.payload
            )
        if self.ip_proto == IP_PROTO_UDP:
            return (
                struct.pack("!HHHH", self.tcp_src, self.tcp_dst, 8 + len(self.payload), 0)
                + self.payload
            )
        if self.ip_proto == IP_PROTO_ICMP:
            return struct.pack("!BBHI", 8, 0, 0, 0) + self.payload
        return self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse bytes produced by :meth:`to_bytes` (or close enough)."""
        if len(data) < 14:
            raise OpenFlowError(f"frame too short for Ethernet: {len(data)}")
        eth_dst = bytes_to_mac(data[0:6])
        eth_src = bytes_to_mac(data[6:12])
        offset = 12
        vlan_vid: int | None = None
        (eth_type,) = struct.unpack_from("!H", data, offset)
        offset += 2
        if eth_type == ETH_TYPE_VLAN:
            (tci,) = struct.unpack_from("!H", data, offset)
            vlan_vid = tci & 0x0FFF
            (eth_type,) = struct.unpack_from("!H", data, offset + 2)
            offset += 4
        if eth_type != ETH_TYPE_IP:
            return cls(
                eth_src=eth_src, eth_dst=eth_dst, eth_type=eth_type,
                vlan_vid=vlan_vid, payload=data[offset:],
            )
        if offset + 20 > len(data):
            raise OpenFlowError("truncated IPv4 header")
        (
            ver_ihl, _tos, _total_len, _ident, _frag, ttl, proto, _csum, src_raw, dst_raw,
        ) = struct.unpack_from("!BBHHHBBH4s4s", data, offset)
        if ver_ihl >> 4 != 4:
            raise OpenFlowError(f"not IPv4: version {ver_ihl >> 4}")
        ihl_bytes = (ver_ihl & 0xF) * 4
        l4_offset = offset + ihl_bytes
        ipv4_src = int_to_ip(struct.unpack("!I", src_raw)[0])
        ipv4_dst = int_to_ip(struct.unpack("!I", dst_raw)[0])
        sport, dport, payload = 0, 0, b""
        if proto == IP_PROTO_TCP and l4_offset + 20 <= len(data):
            sport, dport = struct.unpack_from("!HH", data, l4_offset)
            payload = data[l4_offset + 20 :]
        elif proto == IP_PROTO_UDP and l4_offset + 8 <= len(data):
            sport, dport = struct.unpack_from("!HH", data, l4_offset)
            payload = data[l4_offset + 8 :]
        elif proto == IP_PROTO_ICMP and l4_offset + 8 <= len(data):
            payload = data[l4_offset + 8 :]
        return cls(
            eth_src=eth_src,
            eth_dst=eth_dst,
            eth_type=ETH_TYPE_IP,
            vlan_vid=vlan_vid,
            ipv4_src=ipv4_src,
            ipv4_dst=ipv4_dst,
            ip_proto=proto,
            ttl=ttl,
            tcp_src=sport,
            tcp_dst=dport,
            payload=payload,
        )


def tcp_packet(src_ip: str, dst_ip: str, dst_port: int = 80, **kwargs: Any) -> Packet:
    """Convenience constructor for the common TCP case."""
    return Packet(
        ipv4_src=src_ip, ipv4_dst=dst_ip, ip_proto=IP_PROTO_TCP,
        tcp_dst=dst_port, **kwargs,
    )


def udp_packet(src_ip: str, dst_ip: str, dst_port: int = 53, **kwargs: Any) -> Packet:
    """Convenience constructor for UDP probes."""
    return Packet(
        ipv4_src=src_ip, ipv4_dst=dst_ip, ip_proto=IP_PROTO_UDP,
        tcp_dst=dst_port, **kwargs,
    )


def icmp_ping(src_ip: str, dst_ip: str, **kwargs: Any) -> Packet:
    """Convenience constructor for ping probes (h1 ping h2)."""
    return Packet(ipv4_src=src_ip, ipv4_dst=dst_ip, ip_proto=IP_PROTO_ICMP, **kwargs)
