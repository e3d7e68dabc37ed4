"""Dataplane substrate: packets, traffic injection, violation accounting."""

import repro

_EXPORTS = {
    "repro.dataplane.injector": ("FlowSpec", "InjectionResult", "PeriodicInjector"),
    "repro.dataplane.packets": (
        "Packet", "icmp_ping", "ipv4_checksum", "tcp_packet", "udp_packet",
    ),
    "repro.dataplane.violations": ("PacketFate", "TraceRecord", "ViolationCounters"),
}
__getattr__, __dir__ = repro.lazy_exports(globals(), _EXPORTS)

__all__ = [
    "FlowSpec",
    "InjectionResult",
    "Packet",
    "PacketFate",
    "PeriodicInjector",
    "TraceRecord",
    "ViolationCounters",
    "icmp_ping",
    "ipv4_checksum",
    "tcp_packet",
    "udp_packet",
]
