"""Tests for the packet model and its byte codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.packets import (
    Packet,
    icmp_ping,
    ipv4_checksum,
    tcp_packet,
    udp_packet,
)
from repro.errors import OpenFlowError
from repro.openflow.constants import IP_PROTO_ICMP, IP_PROTO_TCP, IP_PROTO_UDP


class TestFields:
    def test_tcp_fields(self):
        packet = tcp_packet("10.0.0.1", "10.0.0.2", dst_port=443)
        fields = packet.fields(in_port=3)
        assert fields["in_port"] == 3
        assert fields["ipv4_dst"] == "10.0.0.2"
        assert fields["tcp_dst"] == 443
        assert "udp_dst" not in fields

    def test_udp_fields(self):
        packet = udp_packet("10.0.0.1", "10.0.0.2", dst_port=53)
        fields = packet.fields()
        assert fields["udp_dst"] == 53
        assert "tcp_dst" not in fields

    def test_vlan_field_only_when_tagged(self):
        assert "vlan_vid" not in Packet().fields()
        assert Packet().with_vlan(7).fields()["vlan_vid"] == 7

    def test_with_field(self):
        packet = Packet().with_field("ipv4_dst", "1.2.3.4")
        assert packet.ipv4_dst == "1.2.3.4"
        with pytest.raises(OpenFlowError):
            Packet().with_field("no_such_field", 1)

    def test_vlan_add_remove(self):
        tagged = Packet().with_vlan(2)
        assert tagged.vlan_vid == 2
        assert tagged.without_vlan().vlan_vid is None


class TestChecksum:
    def test_known_value(self):
        # RFC 1071 example-style check: checksum of header with zero
        # checksum field, then verify the full header sums to 0xFFFF
        packet = Packet()
        raw = packet.to_bytes()
        ip_header = raw[14:34]
        # re-summing a valid header (checksum included) gives zero
        assert ipv4_checksum(ip_header) == 0

    def test_odd_length_padded(self):
        assert ipv4_checksum(b"\x01") == ipv4_checksum(b"\x01\x00")


class TestByteCodec:
    @pytest.mark.parametrize("packet", [
        Packet(),
        tcp_packet("10.0.0.1", "10.0.0.2", dst_port=8080, payload=b"hello"),
        udp_packet("192.168.0.1", "8.8.8.8", dst_port=53, payload=b"q"),
        icmp_ping("10.0.0.1", "10.0.0.9"),
        Packet(vlan_vid=2, payload=b"tagged"),
        Packet(ttl=1),
    ])
    def test_roundtrip(self, packet):
        back = Packet.from_bytes(packet.to_bytes())
        assert back.eth_src == packet.eth_src
        assert back.eth_dst == packet.eth_dst
        assert back.vlan_vid == packet.vlan_vid
        assert back.ipv4_src == packet.ipv4_src
        assert back.ipv4_dst == packet.ipv4_dst
        assert back.ip_proto == packet.ip_proto
        assert back.ttl == packet.ttl
        assert back.payload == packet.payload
        if packet.ip_proto in (IP_PROTO_TCP, IP_PROTO_UDP):
            assert back.tcp_src == packet.tcp_src
            assert back.tcp_dst == packet.tcp_dst

    def test_non_ip_frame(self):
        packet = Packet(eth_type=0x0806, payload=b"arp-ish")
        back = Packet.from_bytes(packet.to_bytes())
        assert back.eth_type == 0x0806
        assert back.payload == b"arp-ish"

    def test_short_frame_rejected(self):
        with pytest.raises(OpenFlowError):
            Packet.from_bytes(b"\x00" * 5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 255), min_size=4, max_size=4),
        st.lists(st.integers(0, 255), min_size=4, max_size=4),
        st.sampled_from([IP_PROTO_TCP, IP_PROTO_UDP, IP_PROTO_ICMP]),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=40),
        st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFF)),
    )
    def test_property_roundtrip(self, src, dst, proto, port, payload, vlan):
        packet = Packet(
            ipv4_src=".".join(map(str, src)),
            ipv4_dst=".".join(map(str, dst)),
            ip_proto=proto,
            tcp_dst=port,
            payload=payload,
            vlan_vid=vlan,
        )
        back = Packet.from_bytes(packet.to_bytes())
        assert back.ipv4_src == packet.ipv4_src
        assert back.ipv4_dst == packet.ipv4_dst
        assert back.payload == packet.payload
        assert back.vlan_vid == packet.vlan_vid
