"""Runtime reconfiguration stage: membership epochs under churn.

This stage makes the deployment's membership a *runtime* quantity. It
drives four kinds of change, each an instant event on the bus
(:class:`~repro.protocols.runtime.events.ReconfigApplied`) so churn
schedules stay bit-deterministic and traceable:

* **join** — a new node is provisioned, catches up via modeled state
  transfer (:mod:`repro.core.state_transfer`) from live sponsors, and is
  promoted to a voting member only once caught up; the group's quorum
  recomputes from the new size.
* **leave** — a member retires gracefully: leadership is handed off
  first if the leaver holds it, in-flight global-phase proposals are
  carried across or promptly re-proposed
  (:class:`~repro.protocols.runtime.events.ReconfigHandoff`), and the
  node departs after a short drain.
* **leader move** — deliberate or telemetry-driven re-placement: the
  optional leader watch polls per-node NIC backlog (the same signal the
  PR-4 telemetry samples) and moves leadership off a degraded
  representative.
* **degrade / restore region** — per-node WAN throttling over an
  interval; a QoS change, not a membership change, so it publishes an
  event but does not advance the epoch.

Every membership change appends a view to the deployment's
:class:`~repro.core.membership.MembershipLog` and stamps the new epoch
into the group's PBFT instance, so certificates formed on either side of
the boundary validate against the epoch they were formed in.

:class:`~repro.protocols.runtime.deployment.GeoDeployment` builds one
stage per deployment and every protocol spec shares it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.state_transfer import (
    plan_transfer,
    schedule_transfer,
    snapshot_bytes,
)
from repro.protocols.runtime.events import ReconfigApplied, ReconfigHandoff
from repro.protocols.runtime.node import GeoNode
from repro.sim.network import NodeAddress

#: Seconds a leaving member keeps receiving after its epoch ends, so
#: deliveries already in flight to it drain instead of erroring.
LEAVE_DRAIN = 0.02

#: Leader watch: poll period (seconds); a move fires when the
#: representative's WAN send backlog exceeds the threshold (seconds) and
#: a live peer's backlog is at most ``WATCH_IMPROVEMENT`` times it; at most
#: one move per group per cooldown (seconds).
WATCH_INTERVAL = 0.05
WATCH_BACKLOG_THRESHOLD = 0.02
WATCH_IMPROVEMENT = 0.5
WATCH_COOLDOWN = 0.25


class ReconfigStage:
    """Schedules and applies membership changes on a live deployment."""

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        #: Degraded nodes' original WAN rates, for restore.
        self._saved_rates: Dict[NodeAddress, float] = {}
        #: Last telemetry-driven move per group (thrash guard).
        self._last_watch_move: Dict[int, float] = {}
        self._watch_timer = None

    # ------------------------------------------------------------------
    # Scheduling API (mirrors the fault injector)
    # ------------------------------------------------------------------

    def join_node_at(self, gid: int, at: float) -> None:
        """Provision and admit a new node into ``gid`` at time ``at``."""
        self.sim.schedule_at(at, self._join, gid)

    def leave_node_at(self, gid: int, index: int, at: float) -> None:
        """Gracefully retire the member with address index ``index``."""
        self.sim.schedule_at(at, self._leave, gid, index)

    def resize_group_at(self, gid: int, target: int, at: float) -> None:
        """Grow or shrink ``gid`` to ``target`` members at time ``at``."""
        self.sim.schedule_at(at, self._resize, gid, target)

    def move_leader_at(
        self, gid: int, at: float, to_index: Optional[int] = None
    ) -> None:
        """Re-place the group leader; ``to_index`` None picks the live
        member with the least WAN backlog (the telemetry signal)."""
        self.sim.schedule_at(at, self._move_leader_op, gid, to_index)

    def degrade_region_at(
        self, gid: int, at: float, until: float, bandwidth: float
    ) -> None:
        """Throttle every member NIC of ``gid`` to ``bandwidth`` b/s over
        [at, until); restores the original rates afterwards."""
        self.sim.schedule_at(at, self._degrade, gid, bandwidth, until)
        self.sim.schedule_at(until, self._restore, gid)

    def enable_leader_watch(self) -> None:
        """Poll NIC backlog and move leadership off a degraded rep (the
        ``WATCH_*`` constants set the period, trigger and cooldown)."""
        if self._watch_timer is None:
            self._watch_timer = self.sim.set_timer(
                WATCH_INTERVAL, self._watch_tick, interval=WATCH_INTERVAL
            )

    # ------------------------------------------------------------------
    # Join: provision -> state transfer -> promote
    # ------------------------------------------------------------------

    def _join(self, gid: int) -> None:
        deployment = self.deployment
        group = deployment.groups[gid]
        live = [n for n in group.members if not n.crashed]
        if not live:
            self._announce("join_failed", gid, detail="no live sponsor")
            return
        index = (
            max(a.index for a in deployment.nodes if a.group == gid) + 1
        )
        addr = NodeAddress.of(gid, index)
        cfg = deployment.cluster.group(gid)
        node = GeoNode(
            self.sim,
            deployment.network,
            addr,
            deployment,
            wan_bandwidth=cfg.bandwidth_of(index, deployment.cluster.wan_bandwidth),
        )
        node.cpu.rate = deployment.costs.cpu_cores
        deployment.nodes[addr] = node
        # Learner wiring: the joiner can receive global-phase traffic
        # (and ignore what it cannot act on) but holds no vote yet.
        group.global_phase.register_handlers(node)

        sponsor = live[0]
        total = snapshot_bytes(
            [deployment.entries[e].size_bytes
             for e in sponsor.available_entries
             if e in deployment.entries]
        )
        plan = plan_transfer([n.addr for n in live], total)
        done = schedule_transfer(
            self.sim, deployment.network, node, plan, deployment.costs
        )
        self._announce(
            "join_started", gid, index=index,
            detail=f"bytes={total} sponsors={plan.sponsor_count}",
        )
        # The control epoch active when the join *started* rides along to
        # promotion: a controller actuation landing mid-transfer bumps
        # the deployment's control epoch, and the promote path must see
        # the stale epoch it was scheduled under instead of silently
        # racing the membership-epoch bump (the decision windows the
        # controller accumulated for this group predate the new member).
        self.sim.schedule_at(
            done, self._promote, gid, node,
            deployment.control_epoch,
        )

    def _promote(self, gid: int, node: GeoNode, control_epoch: int = 0) -> None:
        deployment = self.deployment
        group = deployment.groups[gid]
        live = [n for n in group.members if not n.crashed]
        if node.crashed or not live:
            self._announce(
                "join_failed", gid, index=node.index,
                detail="group died during catch-up",
            )
            return
        # The snapshot covers everything a live sponsor held; entries
        # that landed during the transfer arrive through the normal
        # dissemination path once the joiner is in the transport set.
        sponsor = live[0]
        node.available_entries |= sponsor.available_entries
        group.members.append(node)
        group.members.sort(key=lambda n: n.addr)
        group.pbft.add_member(node)
        group.local.attach_member(node)
        deployment.transport.add_member(gid, node)
        view = deployment.membership.record(
            gid,
            [m.addr for m in group.members],
            group.pbft.leader.addr,
            self.sim.now,
            f"join {node.addr}",
        )
        group.pbft.epoch = view.epoch
        detail = f"n={view.n} quorum={view.quorum}"
        control = deployment.control
        if control is not None:
            # Record the carried epoch (and whether an actuation landed
            # mid-join) only when a controller is attached: controller-off
            # reconfig details must stay byte-identical to historic runs.
            live_epoch = deployment.control_epoch
            detail += f" ctl_epoch={control_epoch}"
            if live_epoch != control_epoch:
                detail += f"->{live_epoch}"
                control.on_membership_change(gid)
        self._announce("join", gid, index=node.index, detail=detail)

    # ------------------------------------------------------------------
    # Leave
    # ------------------------------------------------------------------

    def _leave(self, gid: int, index: int) -> None:
        deployment = self.deployment
        group = deployment.groups[gid]
        node = next((n for n in group.members if n.index == index), None)
        if node is None or node.crashed:
            self._announce("leave_noop", gid, index=index)
            return
        if len(group.members) == 1:
            # The last member out records the terminal view (members
            # empty, the leaver as nominal leader) but stays in the
            # plumbing as an inert crashed node: other groups' transfer
            # plans and the group's leader slot must remain well-formed.
            view = deployment.membership.record(
                gid,
                [],
                node.addr,
                self.sim.now,
                f"leave {node.addr} (group emptied)",
            )
            group.pbft.epoch = view.epoch
            self._announce("leave", gid, index=index, detail="group emptied")
            self.sim.schedule_at(self.sim.now + LEAVE_DRAIN, self._depart, node)
            return
        if group.pbft.leader is node:
            survivors_live = [
                n for n in group.members if n is not node and not n.crashed
            ]
            if survivors_live:
                self._hand_off(gid, node, survivors_live[0], "leave of leader")
        group.members.remove(node)
        group.pbft.remove_member(node)
        deployment.transport.remove_member(gid, node)
        view = deployment.membership.record(
            gid,
            [m.addr for m in group.members],
            group.pbft.leader.addr,
            self.sim.now,
            f"leave {node.addr}",
        )
        group.pbft.epoch = view.epoch
        self._announce(
            "leave", gid, index=index,
            detail=f"n={view.n} quorum={view.quorum}",
        )
        # Short drain so deliveries already in flight land, then the node
        # goes dark.
        self.sim.schedule_at(self.sim.now + LEAVE_DRAIN, self._depart, node)

    def _depart(self, node: GeoNode) -> None:
        """The drained leaver goes dark (network drops traffic to it,
        timers no-op). It publishes no fault, so the ordering stage is
        told directly: entries that waited on it as an observer are
        released now."""
        node.crash()
        self.deployment.ordering_exec.release_crashed(self.sim.now)

    # ------------------------------------------------------------------
    # Resize
    # ------------------------------------------------------------------

    def _resize(self, gid: int, target: int) -> None:
        group = self.deployment.groups[gid]
        current = len(group.members)
        self._announce("resize", gid, detail=f"{current}->{target}")
        if target > current:
            for _ in range(target - current):
                self._join(gid)
        elif target < current:
            # Retire from the top of the address order; _leave handles a
            # leader departure with a hand-off.
            victims = sorted(
                (n for n in group.members if not n.crashed),
                key=lambda n: n.index,
                reverse=True,
            )[: current - target]
            for node in victims:
                self._leave(gid, node.index)

    # ------------------------------------------------------------------
    # Leader re-placement
    # ------------------------------------------------------------------

    def _move_leader_op(self, gid: int, to_index: Optional[int]) -> None:
        group = self.deployment.groups[gid]
        pbft = group.pbft
        old = pbft.leader
        if to_index is not None:
            target = next(
                (n for n in pbft.nodes if n.index == to_index and not n.crashed),
                None,
            )
        else:
            target = self._least_loaded(gid, exclude=old)
        if target is None or target is old:
            self._announce("leader_move_noop", gid)
            return
        self._hand_off(gid, old, target, "deliberate move")
        view = self.deployment.membership.record(
            gid,
            [m.addr for m in group.members],
            target.addr,
            self.sim.now,
            f"leader {old.addr} -> {target.addr}",
        )
        pbft.epoch = view.epoch
        self._announce(
            "leader_move", gid, index=target.index,
            detail=f"from={old.index}",
        )

    def _least_loaded(self, gid: int, exclude) -> Optional[GeoNode]:
        """Live member with the smallest WAN send backlog (ties: lowest
        address) — the NIC/queue telemetry signal, read directly."""
        network = self.deployment.network
        candidates = [
            n
            for n in self.deployment.groups[gid].pbft.nodes
            if not n.crashed and n is not exclude
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda n: (network.wan_backlog(n.addr), n.addr)
        )

    def _hand_off(self, gid: int, old: GeoNode, new: GeoNode, reason: str) -> None:
        """Move PBFT leadership and carry in-flight global work across.

        Proposals whose commit consensus already started ride out the
        transition (their state is group-level, and peers address the
        *current* representative on every send). Ones still waiting on
        accepts are marked for prompt re-proposal by the liveness tick
        instead of waiting out the full retry interval.
        """
        group = self.deployment.groups[gid]
        group.pbft.set_leader(new)
        carried: List[int] = []
        reproposed: List[int] = []
        phase = group.global_phase
        state = phase.instances.get(gid)
        if state is not None:
            retry = phase.REPLICATION_RETRY
            for seq in sorted(state.outstanding):
                out = state.outstanding[seq]
                if out.commit_pbft_started:
                    carried.append(seq)
                elif out.proposed_at > 0.0:
                    out.proposed_at = min(
                        out.proposed_at, self.sim.now - retry
                    )
                    reproposed.append(seq)
        bus = self.deployment.bus
        if bus.wants(ReconfigHandoff):
            bus.publish(
                ReconfigHandoff(
                    at=self.sim.now,
                    gid=gid,
                    epoch=self.deployment.membership.epoch,
                    from_index=old.index,
                    to_index=new.index,
                    carried=tuple(carried),
                    reproposed=tuple(reproposed),
                )
            )

    # ------------------------------------------------------------------
    # Region degradation (QoS change: event, no epoch bump)
    # ------------------------------------------------------------------

    def _degrade(self, gid: int, bandwidth: float, until: float) -> None:
        network = self.deployment.network
        group = self.deployment.groups[gid]
        throttled = 0
        for node in group.members:
            if node.addr in self._saved_rates:
                continue  # overlapping degrade: keep the first original
            self._saved_rates[node.addr] = network._wan_up[node.addr].rate
            network.set_node_bandwidth(node.addr, bandwidth)
            throttled += 1
        self._announce(
            "degrade_region", gid,
            detail=f"bw={bandwidth:.0f} until={until:.4f} nodes={throttled}",
        )

    def _restore(self, gid: int) -> None:
        network = self.deployment.network
        group = self.deployment.groups[gid]
        restored = 0
        for node in group.members:
            rate = self._saved_rates.pop(node.addr, None)
            if rate is not None:
                network.set_node_bandwidth(node.addr, rate)
                restored += 1
        # Departed members were throttled too; restore whatever is left
        # for this group so a later join is not born throttled.
        for addr in [a for a in self._saved_rates if a.group == gid]:
            network.set_node_bandwidth(addr, self._saved_rates.pop(addr))
            restored += 1
        self._announce("restore_region", gid, detail=f"nodes={restored}")

    # ------------------------------------------------------------------
    # Telemetry-driven leader watch
    # ------------------------------------------------------------------

    def _watch_tick(self) -> None:
        network = self.deployment.network
        for gid in sorted(self.deployment.groups):
            group = self.deployment.groups[gid]
            if group.crashed or not group.members:
                continue
            last_move = self._last_watch_move.get(gid, -1e9)
            if self.sim.now - last_move < WATCH_COOLDOWN:
                continue
            rep = group.pbft.leader
            backlog = network.wan_backlog(rep.addr)
            if backlog < WATCH_BACKLOG_THRESHOLD:
                continue
            best = self._least_loaded(gid, exclude=rep)
            if best is None:
                continue
            if network.wan_backlog(best.addr) <= backlog * WATCH_IMPROVEMENT:
                self._last_watch_move[gid] = self.sim.now
                self._move_leader_op(gid, best.index)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _announce(
        self, kind: str, gid: int, index: int = -1, detail: str = ""
    ) -> None:
        self.deployment.bus.publish(
            ReconfigApplied(
                at=self.sim.now,
                kind=kind,
                gid=gid,
                epoch=self.deployment.membership.epoch,
                index=index,
                detail=detail,
            )
        )
