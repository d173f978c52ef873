"""The replica node: a :class:`SimNode` plus protocol-facing state.

A :class:`GeoNode` holds what the stages need per replica — the set of
available entries, the observer flag, the orderer and execution
pipeline observers carry — and routes intra-group notices (VTS
assignments, commit notices) into its orderer. Everything else is
delegated to the deployment's stages.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.entry import EntryId
from repro.core.global_raft import LocalCommitNotice, LocalTsNotice
from repro.core.ordering import Orderer
from repro.ledger.execution import ExecutionPipeline
from repro.sim.core import Simulator
from repro.sim.network import Message, Network, NodeAddress
from repro.sim.node import SimNode


class GeoNode(SimNode):
    """One replica: a SimNode plus protocol-facing state."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        addr: NodeAddress,
        deployment,
        wan_bandwidth: Optional[float] = None,
    ) -> None:
        super().__init__(sim, network, addr, wan_bandwidth=wan_bandwidth)
        self.deployment = deployment
        self.gid = addr.group
        self.index = addr.index
        self.available_entries: Set[EntryId] = set()
        self.is_observer = False
        # Observers get the spec's orderer (OrderingExecStage); everyone
        # else ignores every ordering input.
        self.orderer: Orderer = Orderer()
        self.pipeline: Optional[ExecutionPipeline] = None
        self.ledger = None  # GlobalLedger on observer nodes
        self.on(LocalTsNotice, self._on_local_ts)
        self.on(LocalCommitNotice, self._on_local_commit)

    def on_unhandled(self, msg: Message) -> None:
        # Global messages are meaningful only at the current group
        # representative; other members (and stale reps) ignore them.
        pass

    def _on_local_ts(self, msg: Message) -> None:
        notice: LocalTsNotice = msg.payload
        self.apply_ts_assignments(notice.assignments)

    def apply_ts_assignments(
        self, assignments: Tuple[Tuple[int, int, int, int], ...]
    ) -> None:
        for assigner, gid, seq, ts in assignments:
            self.orderer.on_timestamp(assigner, gid, seq, ts)

    def _on_local_commit(self, msg: Message) -> None:
        notice: LocalCommitNotice = msg.payload
        self.orderer.on_decided(EntryId(notice.gid, notice.seq), -1)

    def on_entry_available(self, entry_id: EntryId) -> None:
        """Transport callback: entry locally present and verified."""
        self.deployment.dissemination.on_entry_available(self, entry_id)
