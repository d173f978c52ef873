"""Ordering + execution stage: observers, orderers, Aria execution.

Builds the per-observer ordering engine a spec calls for (Algorithm 2
asynchronous VTS, round-based, or Steward's slot sequence), attaches the
ledger and execution pipeline, and publishes
:class:`~repro.protocols.runtime.events.EntryExecuted` at each entry's
origin-group measurement observer.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.entry import EntryId
from repro.core.ordering import DeterministicOrderer, RoundBasedOrderer
from repro.ledger.execution import AriaExecutor, ExecutionPipeline
from repro.protocols.runtime.events import EntryExecuted, FaultInjected


class SequenceOrderer:
    """Steward's ordering: execute entries in global slot order."""

    def __init__(self, on_execute: Callable[[EntryId], None]) -> None:
        self.on_execute = on_execute
        self.next_slot = 0
        self.pending: Dict[int, EntryId] = {}
        self.executed_count = 0

    def deliver(self, slot: int, entry_id: EntryId) -> None:
        self.pending[slot] = entry_id
        while self.next_slot in self.pending:
            self.executed_count += 1
            self.on_execute(self.pending.pop(self.next_slot))
            self.next_slot += 1


class OrderingExecStage:
    """Deployment-wide observer setup and execution measurement.

    Also the executed-everywhere watermark: an entry releases its batch
    (:meth:`~repro.core.entry.LogEntry.release`) once every live observer
    has executed it, so what a run keeps of its batches is bounded by
    the entries in flight, not by its length.
    """

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        #: Observers not known to have crashed (crashes are permanent).
        self._live_observers: List = []
        #: Executions so far, by live observers, of each entry that some
        #: live observer has not executed yet.
        self._executions: Dict[EntryId, int] = {}
        deployment.bus.subscribe(
            FaultInjected, lambda event: self.release_crashed(event.at)
        )

    def setup_observers(self, observers: str) -> None:
        deployment = self.deployment
        for group in deployment.groups.values():
            watchers = (
                list(group.members) if observers == "all" else [group.members[0]]
            )
            for node in watchers:
                node.is_observer = True
                self._live_observers.append(node)
                from repro.ledger.ledger import GlobalLedger

                node.ledger = GlobalLedger(deployment.n_groups)
                executor = AriaExecutor()
                if deployment.execution == "full":
                    deployment.workload.populate(executor.store)
                    deployment.workload.register(executor)
                node.pipeline = ExecutionPipeline(executor)
                on_execute = self.make_execute_callback(node)
                if deployment.spec.ordering == "async":
                    node.orderer = DeterministicOrderer(
                        deployment.n_groups, on_execute, strict=False
                    )
                elif deployment.spec.ordering == "round":
                    node.orderer = RoundBasedOrderer(
                        deployment.n_groups, on_execute
                    )
                else:
                    node.orderer = SequenceOrderer(on_execute)
            # Orderers are assigned here once and joiners never get one,
            # so the members that read each LAN notice (GeoNode's
            # _on_local_ts / on_global_commit) are fixed for the run.
            group.ts_readers = frozenset(
                n.addr
                for n in group.members
                if isinstance(n.orderer, DeterministicOrderer)
            )
            group.commit_readers = frozenset(
                n.addr
                for n in group.members
                if isinstance(n.orderer, RoundBasedOrderer)
            )

    def make_execute_callback(self, node):
        deployment = self.deployment
        executions = self._executions

        def on_execute(entry_id: EntryId) -> None:
            entry = deployment.entries.get(entry_id)
            if entry is None:
                return
            batch = entry.batch  # raises EntryReleased before any state moves
            if node.ledger is not None:
                node.ledger.append(entry)
            result = node.pipeline.execute_entry(batch)
            node.charge_cpu(deployment.costs.execute_seconds(entry.tx_count))
            deployment.groups[node.gid].note_executed_round(entry_id)
            # Measure once, at the origin group's first observer.
            if node.gid == entry_id.gid and node.index == self.observer_index(
                entry_id.gid
            ):
                # Tenant attribution rides along only for multi-tenant
                # traffic specs; single-tenant runs publish the same
                # event shape (and bytes) as before.
                if deployment.tenant_names is not None:
                    tenants = result.commit_tenants
                else:
                    tenants = ()
                deployment.bus.publish(
                    EntryExecuted(
                        entry_id,
                        deployment.sim.now,
                        entry_id.gid,
                        result.commit_times,
                        result.aborted,
                        tenants,
                    )
                )
            count = executions.get(entry_id, 0) + 1
            if count >= len(self._live_observers):
                executions.pop(entry_id, None)
                entry.release(deployment.sim.now)
            else:
                executions[entry_id] = count

        return on_execute

    def release_crashed(self, at: float) -> None:
        """Observers that have crashed stop holding entries back.

        Runs after every announced fault and after a graceful leaver
        goes dark. A crashed observer's executions stop counting; every
        entry that was waiting on it alone is released at ``at``. Its
        ledger says which entries it executed: each subchain grows in
        sequence order.
        """
        dead = [node for node in self._live_observers if node.crashed]
        if not dead:
            return
        executions = self._executions
        for node in dead:
            self._live_observers.remove(node)
            subchains = node.ledger.subchains
            for entry_id in executions:
                if subchains[entry_id.gid].height >= entry_id.seq:
                    executions[entry_id] -= 1
        live = len(self._live_observers)
        entries = self.deployment.entries
        for entry_id in [e for e, count in executions.items() if count >= live]:
            del executions[entry_id]
            entries[entry_id].release(at)

    def observer_index(self, gid: int) -> int:
        return self.deployment.groups[gid].members[0].index
