"""The eager event paths: the reference the event-elision code is compared
against.

The simulator schedules no event whose callback provably does nothing:

* a bare CPU charge (``SimNode.charge_cpu``) is not a completion event;
* a LAN notice reaches only the members whose orderer reads it;
* a ``ModeledPbftGroup`` round delivers its commit at the leader only;
* a PBFT quorum certificate is signed when first read.

:func:`eager` puts the straightforward versions back for the duration of
a ``with`` block — a ``_noop`` continuation per charge, a delivery event
per notice receiver, a commit event per live member, every certificate
signed as it is formed. :class:`EventLog` records every event the run
loop pops, and :func:`can_act` says which of them could have acted, so
a test can require the two runs to agree on every event that matters.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, List, Tuple
from unittest.mock import patch

from repro.consensus.pbft import ModeledPbftGroup, value_digest
from repro.core.global_raft import LocalCommitNotice, LocalTsNotice
from repro.core.ordering import DeterministicOrderer, RoundBasedOrderer
from repro.crypto.certificates import QuorumCertificate
from repro.sim.core import handler_name
from repro.sim.events import EventQueue
from repro.sim.network import Network
from repro.sim.node import SimNode


def _noop() -> None:
    return None


def _eager_charge_cpu(self: SimNode, seconds: float) -> None:
    self.consume_cpu(seconds, _noop)


_broadcast_group = Network.broadcast_group


def _eager_broadcast_group(
    self, src, group, payload, size_bytes, include_self=False, deliver_to=None
):
    return _broadcast_group(self, src, group, payload, size_bytes, include_self)


def eager_certificate(
    group: ModeledPbftGroup, seq: int, dig: bytes
) -> QuorumCertificate:
    statement = f"{group.instance}:commit:{seq}:".encode("utf-8") + dig
    signatures = {
        node.addr: group.keystore.sign_as(node.addr, statement)
        for node in group.nodes[: group.quorum]
    }
    return QuorumCertificate.assemble(statement, signatures, epoch=group.epoch)


def _eager_propose(self: ModeledPbftGroup, value: Any, skip_prepare: bool = False):
    live = self.live_members()
    if len(live) < self.quorum:
        return None
    if self.leader.crashed:
        self.rotate_leader()
    leader = self.leader
    seq = self.next_seq
    self.next_seq += 1

    size = int(getattr(value, "size_bytes", 0) or self.SMALL_MSG)
    dig = value_digest(value)
    lan_latency = self.network.lan_latency
    lan_bw = self.network.lan_bandwidth

    bits = size * 8 * (self.n - 1)
    _, tx_done = self.network._lan_up[leader.addr].acquire(self.sim.now, bits)
    self.network.lan_bytes_total += size * (self.n - 1)
    arrive = tx_done + lan_latency

    verify = self.costs.value_verify_seconds(value)
    phases = 1 if skip_prepare else 2
    small_round = lan_latency + self.SMALL_MSG * 8 / lan_bw
    self.network.lan_bytes_total += phases * self.n * (self.n - 1) * self.SMALL_MSG

    cert = eager_certificate(self, seq, dig)
    for node in live:
        ready = arrive if node is not leader else self.sim.now
        _, cpu_done = node.cpu.acquire(ready, verify)
        commit_time = cpu_done + phases * small_round
        self.sim.schedule_at(
            commit_time, self._deliver_commit, node, seq, value, cert
        )
    return seq


@contextmanager
def eager():
    """Run with every elided event scheduled and every certificate signed."""
    with patch.object(SimNode, "charge_cpu", _eager_charge_cpu), patch.object(
        Network, "broadcast_group", _eager_broadcast_group
    ), patch.object(ModeledPbftGroup, "propose", _eager_propose):
        yield


#: Which orderer reads each LAN notice (GeoNode._on_local_ts / _on_local_commit).
#: The runtime derives the same reader sets from the spec's ordering string
#: (``OrderingExecStage.setup_observers``); this reference reads the orderers.
_READER = {LocalTsNotice: DeterministicOrderer, LocalCommitNotice: RoundBasedOrderer}


def can_act(event) -> bool:
    """False for the events the elision removes: ``_noop`` continuations,
    notices at members without a reading orderer, and PBFT commits at a
    member that is not the leader when the commit fires."""
    callback, args = event.callback, event.args
    func = getattr(callback, "__func__", None)
    if func is SimNode._run_if_alive:
        return args[0] is not _noop
    if func is Network._deliver:
        reader = _READER.get(type(args[0].payload))
        if reader is None:
            return True
        node = callback.__self__._handlers[args[0].dst].__self__
        return isinstance(node.orderer, reader)
    if func is ModeledPbftGroup._deliver_commit:
        return args[0] is callback.__self__.leader
    return True


class EventLog:
    """``(time, seq, handler)`` of every popped event that :func:`can_act`,
    plus how many popped events could not."""

    def __init__(self) -> None:
        self.acting: List[Tuple[float, int, str]] = []
        self.inert = 0

    @contextmanager
    def recording(self):
        pop_until = EventQueue.pop_until
        log = self

        def recorded(queue, until):
            event = pop_until(queue, until)
            if event is not None:
                if can_act(event):
                    name = handler_name(event.callback, event.args)
                    log.acting.append((event.time, event.seq, name))
                else:
                    log.inert += 1
            return event

        with patch.object(EventQueue, "pop_until", recorded):
            yield self
