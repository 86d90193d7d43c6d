"""Client mobility: follow-me edge handover.

The Dispatcher already "tracks the clients' current location" (§IV-B). This
module adds what the related work calls *Follow Me Edge* (Taleb et al. [12],
[13]): when a UE moves to a different access zone, its existing redirection
decisions point at what is no longer the nearest edge. A handover

1. updates the client's zone in the :class:`~repro.core.zones.ZoneMap`,
2. withdraws the client's redirections — FlowMemory entries, switch flows
   and their load (:meth:`TransparentEdgeController.withdraw`),

so the very next packet re-enters the dispatch path and lands on the edge
cluster nearest to the *new* location — still fully transparent to the
client, which keeps addressing the cloud IP throughout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.addresses import IPv4

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import TransparentEdgeController


class MobilityManager:
    """Performs handovers against a running controller."""

    def __init__(self, controller: "TransparentEdgeController"):
        self.controller = controller
        #: diagnostics
        self.handovers = 0

    def handover(self, client: IPv4, new_zone: Optional[str] = None) -> int:
        """Move ``client`` (optionally to ``new_zone``); returns the number
        of memorized flows that were invalidated."""
        controller = self.controller
        dispatcher = controller.dispatcher
        if new_zone is not None:
            dispatcher.set_client_zone(client, new_zone)

        invalidated = controller.withdraw(client=client)
        self.handovers += 1
        controller.log("handover", client=str(client),
                       zone=new_zone or dispatcher.client_zone(client),
                       invalidated=invalidated)
        return invalidated
