"""JSON (de)serialization for topologies.

The on-disk format is a plain JSON object so scenarios can be authored by
hand and shipped next to benchmark configs::

    {
      "name": "figure1",
      "nodes": [{"id": 1, "kind": "switch"}, ...],
      "links": [{"a": 1, "b": 2, "latency_ms": 1.0, "bandwidth_mbps": 1000.0}]
    }

Node ids survive a round-trip for ints and strings (the only kinds the
library itself creates).
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Any

from repro.errors import TopologyError
from repro.topology.graph import Topology


def topology_to_dict(topo: Topology) -> dict[str, Any]:
    """Serialize a topology to a JSON-compatible dict."""
    nodes = []
    for node_id in topo.nodes():
        info = topo.node(node_id)
        entry: dict[str, Any] = {"id": node_id, "kind": info.kind}
        if info.attrs:
            entry["attrs"] = dict(info.attrs)
        nodes.append(entry)
    links = [
        {
            "a": link.a,
            "b": link.b,
            "latency_ms": link.latency_ms,
            "bandwidth_mbps": link.bandwidth_mbps,
        }
        for link in topo.links()
    ]
    return {"name": topo.name, "nodes": nodes, "links": links}


def topology_from_dict(data: dict[str, Any]) -> Topology:
    """Inverse of :func:`topology_to_dict` with validation."""
    if not isinstance(data, dict):
        raise TopologyError(f"expected a dict, got {type(data).__name__}")
    topo = Topology(name=data.get("name", "topology"))
    for entry in data.get("nodes", []):
        if "id" not in entry:
            raise TopologyError(f"node entry without id: {entry!r}")
        topo.add_node(
            entry["id"], kind=entry.get("kind", "switch"), **entry.get("attrs", {})
        )
    for entry in data.get("links", []):
        if "a" not in entry or "b" not in entry:
            raise TopologyError(f"link entry without endpoints: {entry!r}")
        topo.add_link(
            entry["a"],
            entry["b"],
            latency_ms=entry.get("latency_ms", 1.0),
            bandwidth_mbps=entry.get("bandwidth_mbps", 1000.0),
        )
    topo.validate()
    return topo


def save_topology(topo: Topology, path: str | FsPath) -> None:
    """Write a topology to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(topology_to_dict(topo), handle, indent=2, sort_keys=True)
