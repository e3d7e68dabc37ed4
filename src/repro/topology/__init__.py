"""Topology substrate: graphs, ports, paths, builders and random instances."""

from repro.topology.builders import (
    FIGURE1_NEW_PATH,
    FIGURE1_OLD_PATH,
    FIGURE1_WAYPOINT,
    fat_tree,
    figure1,
    figure1_paths,
    grid,
    linear,
    ring,
)
from repro.topology.graph import Link, NodeId, NodeInfo, Topology
from repro.topology.io import (
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.paths import Path, as_path
from repro.topology.random_graphs import (
    erdos_renyi,
    random_path_pair_in,
    random_simple_path,
    random_update_instance,
    random_waypointed_instance,
    waxman,
)

__all__ = [
    "FIGURE1_NEW_PATH",
    "FIGURE1_OLD_PATH",
    "FIGURE1_WAYPOINT",
    "Link",
    "NodeId",
    "NodeInfo",
    "Path",
    "Topology",
    "as_path",
    "erdos_renyi",
    "fat_tree",
    "figure1",
    "figure1_paths",
    "grid",
    "linear",
    "random_path_pair_in",
    "random_simple_path",
    "random_update_instance",
    "random_waypointed_instance",
    "ring",
    "save_topology",
    "topology_from_dict",
    "topology_to_dict",
    "waxman",
]
