"""Base class for controller applications (the Ryu app model, simplified).

Apps register with a :class:`~repro.controller.core.Controller` and receive
the callbacks below.  Default implementations do nothing, so apps override
only what they need -- mirroring how Ryu apps subscribe to events.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.core import Controller
    from repro.controller.datapath_handle import Datapath


class RyuLikeApp:
    """Override the ``on_*`` hooks; ``self.controller`` is set at register."""

    name = "app"

    def __init__(self) -> None:
        self._controller: "weakref.ref[Controller] | None" = None

    @property
    def controller(self) -> "Controller | None":
        """The controller this app is registered with (it owns its apps,
        so it is held weakly); ``None`` before that or once it is gone."""
        return self._controller() if self._controller is not None else None

    @controller.setter
    def controller(self, controller: "Controller") -> None:
        self._controller = weakref.ref(controller)

    # -- lifecycle -----------------------------------------------------
    def on_registered(self, controller: "Controller") -> None:
        """Called once when the app joins the controller."""

    def on_datapath_connected(self, datapath: "Datapath") -> None:
        """A switch finished its handshake."""

    # -- message hooks ---------------------------------------------------
    def on_barrier_reply(self, datapath: "Datapath", message: Any) -> None:
        """A BarrierReply arrived from ``datapath``."""

    def on_packet_in(self, datapath: "Datapath", message: Any) -> None:
        """A PacketIn arrived."""

    def on_error(self, datapath: "Datapath", message: Any) -> None:
        """The switch rejected something."""

    def on_flow_removed(self, datapath: "Datapath", message: Any) -> None:
        """A flow entry expired or was deleted with SEND_FLOW_REM."""

    def on_echo_reply(self, datapath: "Datapath", message: Any) -> None:
        """Liveness probe answered."""

    def on_flow_stats(self, datapath: "Datapath", message: Any) -> None:
        """A FlowStatsReply arrived."""
