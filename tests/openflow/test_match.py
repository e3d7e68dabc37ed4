"""Tests for Match semantics and OXM encoding."""

import copy
import dataclasses
import ipaddress
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OpenFlowError
from repro.openflow.match import (
    Match,
    bytes_to_mac,
    int_to_ip,
    ip_to_int,
    mac_to_bytes,
    parse_ipv4_prefix,
)


class TestValueHelpers:
    def test_ip_roundtrip(self):
        for ip in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "192.168.1.77"):
            assert int_to_ip(ip_to_int(ip)) == ip

    def test_bad_ips(self):
        for bad in ("10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5"):
            with pytest.raises(OpenFlowError):
                ip_to_int(bad)

    # everything below is an address (or a mask) to a bare ``int()``
    @pytest.mark.parametrize(
        "bad",
        ["1_0.0.0.1", "10.0.0.+1", " 10 .0.0.1", "10.0.0.\u0667", "10.0.0.-0",
         "10.0.0.1 ", "10..0.1",
         pytest.param("10.0.0." + "1" * 5000, id="past-the-int-digit-limit")],
    )
    def test_only_ascii_decimal_octets(self, bad):
        for _ in range(2):  # a rejected string is not remembered as good
            with pytest.raises(OpenFlowError, match="bad IPv4 address"):
                ip_to_int(bad)
        with pytest.raises(OpenFlowError, match="bad IPv4 address"):
            parse_ipv4_prefix(bad + "/24")
        with pytest.raises(OpenFlowError):
            Match(ipv4_dst=bad)

    @pytest.mark.parametrize(
        "bad", ["10.0.0.0/2_4", "10.0.0.0/+8", "10.0.0.0/ 8", "10.0.0.0/\u0668",
                "10.0.0.0/", "10.0.0.0/8/8", "10.0.0.0/-1"],
    )
    def test_only_ascii_decimal_prefix_lengths(self, bad):
        with pytest.raises(OpenFlowError, match="bad prefix length"):
            parse_ipv4_prefix(bad)
        with pytest.raises(OpenFlowError):
            Match(ipv4_src=bad)

    @pytest.mark.parametrize(
        "spec, address, mask",
        [
            ("10.0.0.1", 0x0A000001, 0xFFFFFFFF),
            ("010.000.0.001", 0x0A000001, 0xFFFFFFFF),
            ("10.0.0.1/32", 0x0A000001, 0xFFFFFFFF),
            ("10.0.0.77/24", 0x0A000000, 0xFFFFFF00),
            ("255.255.255.255/1", 0x80000000, 0x80000000),
            ("1.2.3.4/0", 0, 0),
            ("1.2.3.4/08", 0x01000000, 0xFF000000),
        ],
    )
    def test_valid_forms_still_parse(self, spec, address, mask):
        assert parse_ipv4_prefix(spec) == (address, mask)
        assert ip_to_int(spec.split("/")[0]) & mask == address

    def test_prefix_parsing(self):
        addr, mask = parse_ipv4_prefix("10.0.0.0/8")
        assert addr == 0x0A000000 and mask == 0xFF000000
        addr, mask = parse_ipv4_prefix("10.0.0.1")
        assert mask == 0xFFFFFFFF

    def test_prefix_zero(self):
        addr, mask = parse_ipv4_prefix("0.0.0.0/0")
        assert addr == 0 and mask == 0

    def test_prefix_normalizes_host_bits(self):
        addr, _ = parse_ipv4_prefix("10.0.0.77/24")
        assert addr == ip_to_int("10.0.0.0")

    def test_bad_prefix(self):
        with pytest.raises(OpenFlowError):
            parse_ipv4_prefix("10.0.0.0/33")
        with pytest.raises(OpenFlowError):
            parse_ipv4_prefix("10.0.0.0/x")

    def test_mac_roundtrip(self):
        mac = "aa:bb:cc:dd:ee:ff"
        assert bytes_to_mac(mac_to_bytes(mac)) == mac
        with pytest.raises(OpenFlowError):
            mac_to_bytes("aa:bb")
        with pytest.raises(OpenFlowError):
            bytes_to_mac(b"\x00")


class TestMatching:
    def test_wildcard_matches_everything(self):
        assert Match().matches({"eth_type": 0x0800})
        assert Match().is_wildcard()

    def test_exact_fields(self):
        match = Match(in_port=3, eth_type=0x0800)
        assert match.matches({"in_port": 3, "eth_type": 0x0800})
        assert not match.matches({"in_port": 4, "eth_type": 0x0800})
        assert not match.matches({"eth_type": 0x0800})

    def test_ipv4_prefix_matching(self):
        match = Match(ipv4_dst="10.1.0.0/16")
        assert match.matches({"ipv4_dst": "10.1.200.3"})
        assert not match.matches({"ipv4_dst": "10.2.0.3"})

    def test_missing_ip_field(self):
        assert not Match(ipv4_dst="10.0.0.1").matches({})

    def test_specificity(self):
        assert Match().specificity() == 0
        assert Match(in_port=1, tcp_dst=80).specificity() == 2

    def test_replace(self):
        match = Match(in_port=1)
        changed = match.replace(in_port=2, eth_type=0x0800)
        assert changed.in_port == 2 and changed.eth_type == 0x0800
        assert match.in_port == 1  # frozen original untouched


IP_FIELDS = ("ipv4_src", "ipv4_dst")
FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Match))

#: Few values per field, so that a random packet often matches.
ADDRESSES = st.sampled_from(
    ["10.0.0.1", "10.0.0.2", "10.0.1.2", "10.128.0.1", "192.168.7.9", "0.0.0.0",
     "255.255.255.255", "138.0.0.1"]
)
PREFIXES = st.builds(
    lambda address, length: address if length is None else f"{address}/{length}",
    ADDRESSES, st.none() | st.integers(0, 32),
)
EXACT_VALUES = {
    "in_port": st.integers(1, 3),
    "eth_dst": st.sampled_from(["aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:02"]),
    "eth_src": st.sampled_from(["aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:02"]),
    "eth_type": st.sampled_from([0x0800, 0x0806]),
    "vlan_vid": st.integers(0, 2),
    "ip_proto": st.sampled_from([6, 17]),
    "tcp_src": st.integers(0, 2), "tcp_dst": st.sampled_from([80, 443]),
    "udp_src": st.integers(0, 2), "udp_dst": st.sampled_from([53, 67]),
}
CONSTRAINTS = st.fixed_dictionaries(
    {}, optional={**EXACT_VALUES, **dict.fromkeys(IP_FIELDS, PREFIXES)}
)
PACKETS = st.fixed_dictionaries(
    {}, optional={**EXACT_VALUES, **dict.fromkeys(IP_FIELDS, ADDRESSES)}
)


def reference_matches(constraints: dict, packet: dict) -> bool:
    """From-scratch matcher: stdlib ``ipaddress``, nothing from ``src/``."""
    for name, wanted in constraints.items():
        actual = packet.get(name)
        if name in IP_FIELDS:
            if actual is None:
                return False
            network = ipaddress.ip_network(wanted, strict=False)
            if ipaddress.ip_address(actual) not in network:
                return False
        elif actual != wanted:
            return False
    return True


class TestMatchAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(CONSTRAINTS, PACKETS, st.sampled_from(FIELD_NAMES))
    def test_matches_like_the_reference(self, constraints, packet, cleared):
        expected = reference_matches(constraints, packet)
        match = Match(**constraints)
        twin = Match(**dict(reversed(constraints.items())))
        rebuilt = Match().replace(**constraints)
        for candidate in (match, twin, rebuilt, copy.deepcopy(match),
                          pickle.loads(pickle.dumps(match)),
                          Match.from_ofctl(match.to_ofctl())):
            assert candidate.matches(packet) is expected
            assert candidate == match and hash(candidate) == hash(match)
            assert repr(candidate) == repr(match)
        # clearing a field drops exactly that constraint
        fewer = {k: v for k, v in constraints.items() if k != cleared}
        relaxed = match.replace(**{cleared: None})
        assert relaxed == Match(**fewer)
        assert relaxed.matches(packet) is reference_matches(fewer, packet)
        assert relaxed.set_fields() == {n: fewer[n] for n in FIELD_NAMES if n in fewer}
        assert relaxed.specificity() == len(fewer)
        assert relaxed.is_wildcard() is (not fewer)

    def test_identity_is_the_twelve_fields_only(self):
        match = Match(in_port=1, eth_type=0x0800, ipv4_dst="10.0.0.0/24")
        before = (repr(match), hash(match), dataclasses.astuple(match))
        assert match.matches({"in_port": 1, "eth_type": 0x0800, "ipv4_dst": "10.0.0.9"})
        assert (repr(match), hash(match), dataclasses.astuple(match)) == before
        assert repr(match) == (
            "Match(in_port=1, eth_dst=None, eth_src=None, eth_type=2048, "
            "vlan_vid=None, ip_proto=None, ipv4_src=None, "
            "ipv4_dst='10.0.0.0/24', tcp_src=None, tcp_dst=None, "
            "udp_src=None, udp_dst=None)"
        )
        assert [f.name for f in dataclasses.fields(match)] == list(FIELD_NAMES)
        # same prefix, different spelling: still different matches
        assert Match(ipv4_dst="10.0.0.7/24") != match
        assert {match: 1}[Match(in_port=1, eth_type=0x0800, ipv4_dst="10.0.0.0/24")] == 1

    def test_malformed_prefix_is_rejected_at_construction(self):
        for build in (
            lambda: Match(ipv4_dst="10.0.0.999"),
            lambda: Match().replace(ipv4_src="10.0.0.0/33"),
            lambda: Match.from_ofctl({"nw_dst": "10.0.0.999"}),
        ):
            with pytest.raises(OpenFlowError):
                build()

    def test_in_port_and_prefix_together(self):
        match = Match(in_port=2, ipv4_dst="10.0.0.0/9")
        assert match.matches({"in_port": 2, "ipv4_dst": "10.127.255.255"})
        assert not match.matches({"in_port": 2, "ipv4_dst": "10.128.0.1"})
        assert not match.matches({"in_port": 1, "ipv4_dst": "10.0.0.1"})
        assert not match.matches({"ipv4_dst": "10.0.0.1"})


class TestSubsumption:
    def test_wildcard_subsumes_all(self):
        assert Match().subsumes(Match(in_port=1, ipv4_dst="10.0.0.1"))

    def test_specific_does_not_subsume_wildcard(self):
        assert not Match(in_port=1).subsumes(Match())

    def test_prefix_subsumption(self):
        assert Match(ipv4_dst="10.0.0.0/8").subsumes(Match(ipv4_dst="10.1.0.0/16"))
        assert not Match(ipv4_dst="10.1.0.0/16").subsumes(Match(ipv4_dst="10.0.0.0/8"))
        assert not Match(ipv4_dst="11.0.0.0/8").subsumes(Match(ipv4_dst="10.1.0.0/16"))

    def test_equal_matches_subsume_each_other(self):
        a = Match(eth_type=0x0800, tcp_dst=80)
        assert a.subsumes(a)


class TestOfctlCodec:
    def test_roundtrip(self):
        match = Match(in_port=1, eth_type=0x0800, ipv4_dst="10.0.0.0/24")
        assert Match.from_ofctl(match.to_ofctl()) == match

    def test_legacy_aliases(self):
        match = Match.from_ofctl({"nw_dst": "10.0.0.1", "dl_type": 0x0800})
        assert match.ipv4_dst == "10.0.0.1"
        assert match.eth_type == 0x0800

    def test_unknown_field_rejected(self):
        with pytest.raises(OpenFlowError, match="unknown match field"):
            Match.from_ofctl({"frobnicate": 1})
