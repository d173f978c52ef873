"""Dissemination stage: transport selection and entry availability.

Chooses the replication transport a spec calls for (leader unicast /
bijective / encoded bijective), drives it when an entry commits locally,
and handles the transport's delivery callback — reassembly bookkeeping,
execution CPU accounting at non-observers, orderer availability marks,
and the hand-off to the global phase.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.entry import EntryId, LogEntry
from repro.core.replication import (
    BijectiveTransport,
    EncodedBijectiveTransport,
    LeaderUnicastTransport,
)
from repro.costs import CostModel
from repro.protocols.runtime.events import (
    EntryAvailableRemote,
    EntryReplicationStarted,
)


def build_transport(
    spec,
    members_by_gid: Dict[int, List],
    deliver: Callable,
    get_entry: Callable[[EntryId], LogEntry],
    costs: CostModel,
    coding: str,
):
    """Instantiate the replication transport a spec calls for."""
    if spec.transport == "leader":
        return LeaderUnicastTransport(members_by_gid, deliver, get_entry, costs)
    if spec.transport == "bijective":
        return BijectiveTransport(members_by_gid, deliver, get_entry, costs)
    return EncodedBijectiveTransport(
        members_by_gid, deliver, get_entry, costs, coding=coding
    )


class DisseminationStage:
    """Deployment-wide transport driver and availability hub."""

    def __init__(self, deployment, transport) -> None:
        self.deployment = deployment
        self.transport = transport

    def replicate(self, entry: LogEntry, group, node) -> None:
        """Ship a locally committed entry to every other group."""
        bus = self.deployment.bus
        if bus.wants(EntryReplicationStarted):
            bus.publish(
                EntryReplicationStarted(
                    entry.entry_id, self.deployment.sim.now, entry.size_bytes
                )
            )
        self.transport.replicate(entry, group.members, node)

    def on_entry_available(self, node, entry_id: EntryId) -> None:
        """Transport callback: entry locally present and verified at ``node``."""
        deployment = self.deployment
        node.available_entries.add(entry_id)
        entry = deployment.entries.get(entry_id)
        if entry is not None and not node.is_observer:
            # Every replica executes; non-observers only pay the CPU.
            node.charge_cpu(deployment.costs.execute_seconds(entry.tx_count))
        node.orderer.mark_available(entry_id.gid, entry_id.seq)
        group = deployment.groups[node.gid]
        if entry_id.gid != group.gid and group.is_rep(node):
            deployment.bus.publish(
                EntryAvailableRemote(entry_id, deployment.sim.now, group.gid)
            )
        group.global_phase.on_entry_available(node, entry_id)
