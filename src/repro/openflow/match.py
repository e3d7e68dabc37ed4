"""OpenFlow match structure over the OXM basic fields.

A :class:`Match` holds the subset of OXM basic fields the prototype needs
(port, Ethernet, VLAN, IPv4, TCP/UDP).  It can

* test a packet's header fields (:meth:`Match.matches`),
* convert to/from the ofctl-style JSON dicts used in the paper's REST body.

IPv4 fields accept ``"10.0.0.1"`` or ``"10.0.0.0/24"``; masked matching is
supported for the IPv4 fields only (enough for destination-based policies).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from functools import lru_cache
from typing import Any, Iterator, Mapping

from repro.errors import OpenFlowError
from repro.openflow.constants import OxmField

# ---------------------------------------------------------------------------
# value helpers
# ---------------------------------------------------------------------------

def _decimal(text: str, most: int) -> int | None:
    """``text`` as an int in ``0..most``, else None.  ASCII digits only:
    ``int()`` alone also takes ``_``, a sign, blanks and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        value = int(text)
    except ValueError:  # past the interpreter's int-conversion digit limit
        return None
    return value if value <= most else None


@lru_cache(maxsize=4096)  # a packet's address is looked up at every hop
def ip_to_int(address: str) -> int:
    """``"10.0.0.1"`` -> 0x0a000001 (with validation)."""
    parts = address.split(".")
    if len(parts) != 4:
        raise OpenFlowError(f"bad IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = _decimal(part, 255)
        if octet is None:
            raise OpenFlowError(f"bad IPv4 address {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Inverse of :func:`ip_to_int`."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise OpenFlowError(f"IPv4 int out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ipv4_prefix(spec: str) -> tuple[int, int]:
    """``"10.0.0.0/24"`` -> (address_int, mask_int); bare IPs get /32."""
    if "/" in spec:
        address, prefix_str = spec.split("/", 1)
        prefix = _decimal(prefix_str, 32)
        if prefix is None:
            raise OpenFlowError(f"bad prefix length in {spec!r}")
    else:
        address, prefix = spec, 32
    mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF if prefix else 0
    return ip_to_int(address) & mask, mask


def mac_to_bytes(mac: str) -> bytes:
    """``"aa:bb:cc:dd:ee:ff"`` -> 6 bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise OpenFlowError(f"bad MAC address {mac!r}")
    try:
        return bytes(int(part, 16) for part in parts)
    except ValueError:
        raise OpenFlowError(f"bad MAC address {mac!r}") from None


def bytes_to_mac(data: bytes) -> str:
    if len(data) != 6:
        raise OpenFlowError(f"MAC must be 6 bytes, got {len(data)}")
    return ":".join(f"{byte:02x}" for byte in data)


# ---------------------------------------------------------------------------
# the Match itself
# ---------------------------------------------------------------------------

#: Match attribute -> its OXM field id.
_FIELD_BY_NAME: dict[str, OxmField] = {
    "in_port": OxmField.IN_PORT,
    "eth_dst": OxmField.ETH_DST,
    "eth_src": OxmField.ETH_SRC,
    "eth_type": OxmField.ETH_TYPE,
    "vlan_vid": OxmField.VLAN_VID,
    "ip_proto": OxmField.IP_PROTO,
    "ipv4_src": OxmField.IPV4_SRC,
    "ipv4_dst": OxmField.IPV4_DST,
    "tcp_src": OxmField.TCP_SRC,
    "tcp_dst": OxmField.TCP_DST,
    "udp_src": OxmField.UDP_SRC,
    "udp_dst": OxmField.UDP_DST,
}

#: The most each int field holds (its OXM width); the other fields are strings.
_INT_MOST = {"in_port": 0xFFFFFFFF, "vlan_vid": 0x1FFF, "ip_proto": 0xFF,
             **dict.fromkeys("eth_type tcp_src tcp_dst udp_src udp_dst".split(), 0xFFFF)}

#: Fields that may carry a mask in this implementation.
_MASKABLE = {OxmField.IPV4_SRC, OxmField.IPV4_DST}


@dataclass(frozen=True)
class Match:
    """A set of header-field constraints; unset fields are wildcards.

    >>> m = Match(eth_type=0x0800, ipv4_dst="10.0.0.0/24")
    >>> m.matches({"eth_type": 0x0800, "ipv4_dst": "10.0.0.7"})
    True
    >>> m.matches({"eth_type": 0x0806})
    False

    The constrained fields are resolved, and IPv4 prefixes parsed, once at
    construction (a malformed prefix raises there, not inside a lookup).
    """

    in_port: int | None = None
    eth_dst: str | None = None
    eth_src: str | None = None
    eth_type: int | None = None
    vlan_vid: int | None = None
    ip_proto: int | None = None
    ipv4_src: str | None = None
    ipv4_dst: str | None = None
    tcp_src: int | None = None
    tcp_dst: int | None = None
    udp_src: int | None = None
    udp_dst: int | None = None

    def __post_init__(self) -> None:
        # (name, wanted, mask) per constrained field, in field order; mask
        # is None for an exact field, else ``wanted`` is the masked address.
        # Not a dataclass field, so equality, hash and repr do not see it.
        constraints = []
        for name, field in _FIELD_BY_NAME.items():
            value = getattr(self, name)
            if value is None:
                continue
            if field in _MASKABLE:
                constraints.append((name, *parse_ipv4_prefix(str(value))))
            else:
                constraints.append((name, value, None))
        object.__setattr__(self, "_constraints", tuple(constraints))

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def set_fields(self) -> dict[str, Any]:
        """The non-wildcard constraints as a name->value dict."""
        return {name: getattr(self, name) for name, _, _ in self._constraints}

    def is_wildcard(self) -> bool:
        return not self._constraints

    def specificity(self) -> int:
        """How many fields are constrained (tie-breaker in tests/reports)."""
        return len(self._constraints)

    def replace(self, **changes: Any) -> "Match":
        """A copy with some fields changed (None clears a field)."""
        return dataclass_replace(self, **changes)

    # ------------------------------------------------------------------
    # packet matching
    # ------------------------------------------------------------------
    def matches(self, packet_fields: Mapping[str, Any]) -> bool:
        """Do a packet's header fields satisfy every constraint?"""
        get = packet_fields.get
        for name, wanted, mask in self._constraints:
            actual = get(name)
            if mask is None:
                if actual != wanted:
                    return False
            elif actual is None or ip_to_int(str(actual)) & mask != wanted:
                return False
        return True

    def subsumes(self, other: "Match") -> bool:
        """True when every packet matching ``other`` also matches ``self``.

        Used for OFPFC_DELETE (non-strict) semantics: a delete with match M
        removes entries whose match is *at least as specific* as M.
        """
        theirs = {name: rest for name, *rest in other._constraints}
        for name, wanted, mask in self._constraints:
            if name not in theirs:
                return False
            other_wanted, other_mask = theirs[name]
            if mask is None:
                if other_wanted != wanted:
                    return False
            elif other_mask & mask != mask or other_wanted & mask != wanted:
                return False
        return True

    # ------------------------------------------------------------------
    # ofctl-style dicts (the REST body format)
    # ------------------------------------------------------------------
    def to_ofctl(self) -> dict[str, Any]:
        """Field dict as Ryu's ofctl_rest reports it."""
        return dict(self.set_fields())

    @classmethod
    def from_ofctl(cls, data: Mapping[str, Any]) -> "Match":
        """Parse an ofctl-style match dict (unknown keys and values of the
        wrong type are rejected)."""
        values: dict[str, Any] = {}
        aliases = {"nw_src": "ipv4_src", "nw_dst": "ipv4_dst", "dl_type": "eth_type",
                   "dl_src": "eth_src", "dl_dst": "eth_dst", "nw_proto": "ip_proto",
                   "tp_src": "tcp_src", "tp_dst": "tcp_dst", "dl_vlan": "vlan_vid"}
        for key, value in data.items():
            name = aliases.get(key, key)
            if name not in _FIELD_BY_NAME:
                raise OpenFlowError(f"unknown match field {key!r}")
            most = _INT_MOST.get(name)
            if not (isinstance(value, str) if most is None
                    else type(value) is int and 0 <= value <= most):
                raise OpenFlowError(f"bad value for match field {key!r}")
            values[name] = value
        return cls(**values)


def iter_supported_fields() -> Iterator[str]:
    """Names of all match fields this implementation supports."""
    return iter(_FIELD_BY_NAME)
