"""Crashed-group takeover (Section V-C, Fig 15).

Mixed into :class:`~repro.protocols.runtime.global_phase.RaftGlobalPhase`:
when a Raft instance falls silent, the lowest-gid live group campaigns to
lead it, and — once elected — assigns the crashed group's frozen clock
to every entry still missing that VTS element, unblocking Algorithm 2
ordering at all observers.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.core.global_raft import GRTakeoverRequest, GRTakeoverVote


class TakeoverMixin:
    """Takeover election + frozen-clock assignment for a Raft phase."""

    def check_instance_liveness(self) -> None:
        """Periodic: start a takeover for silent instances we don't lead."""
        if self.group.crashed or self.spec.ordering != "async":
            return
        now = self.sim.now
        deployment = self.deployment
        timeout = deployment.takeover_timeout
        for instance, state in self.instances.items():
            if instance == self.gid or state.takeover_leader is not None:
                continue
            if state.last_heard == 0.0 or now - state.last_heard < timeout:
                continue
            # Candidate rule: the lowest-gid live group runs for takeover.
            live = [
                g
                for g in range(deployment.n_groups)
                if g != instance and not deployment.groups[g].crashed
            ]
            if not live or live[0] != self.gid:
                continue
            state.takeover_term += 1
            state.takeover_votes = {self.gid}
            request = GRTakeoverRequest(
                instance=instance, candidate=self.gid, term=state.takeover_term
            )
            for gid in deployment.other_groups(self.gid):
                rep = deployment.groups[gid].rep
                self.group.rep.send(
                    rep.addr, request, request.size_bytes, priority=True
                )

    def on_takeover_request(self, node, msg) -> None:
        request: GRTakeoverRequest = msg.payload
        if not self.group.is_rep(node) or node.crashed:
            return
        state = self.instances[request.instance]
        silent = (
            self.sim.now - state.last_heard
            >= self.deployment.takeover_timeout / 2
        )
        granted = silent and request.term > state.takeover_term
        known: Tuple[Tuple[int, int, int], ...] = ()
        if granted:
            state.takeover_term = request.term
            # Ship everything we ever learned from the crashed group's
            # clock: the leader replays it before assigning frozen values,
            # so no assignment any of our observers already ordered by can
            # be contradicted (log completion, as in a Raft leader change).
            known = tuple(
                (g, s, t)
                for (g, s), t in sorted(
                    self.archive.get(request.instance, {}).items()
                )
            )
        vote = GRTakeoverVote(
            instance=request.instance,
            candidate=request.candidate,
            term=request.term,
            voter=self.gid,
            granted=granted,
            known=known,
            frozen=state.frozen_clock if granted else 0,
        )
        rep = self.deployment.groups[request.candidate].rep
        node.send(rep.addr, vote, vote.size_bytes, priority=True)

    def on_takeover_vote(self, node, msg) -> None:
        vote: GRTakeoverVote = msg.payload
        if not self.group.is_rep(node) or node.crashed or not vote.granted:
            return
        state = self.instances[vote.instance]
        if vote.term != state.takeover_term or state.takeover_leader is not None:
            return
        for g, s, t in vote.known:
            state.takeover_known.setdefault((g, s), t)
        # Our frozen value must not regress below any lower bound a
        # voter's observers may have inferred from the crashed clock.
        state.frozen_clock = max(state.frozen_clock, vote.frozen)
        state.takeover_votes.add(vote.voter)
        if len(state.takeover_votes) >= self.deployment.f_g + 1:
            state.takeover_leader = self.gid
            self._start_takeover_assignments(node, vote.instance)

    def _start_takeover_assignments(self, node, instance: int) -> None:
        """Replay the crashed group's known assignments, then assign its
        frozen clock to everything still missing that VTS element.

        Replay first: granted votes carried every assignment the voters
        received from the crashed clock, so any value some live observer
        may already have ordered by is re-broadcast instead of being
        contradicted by a frozen value. Only entries no live group knows
        an assignment for get the frozen clock. The sweep source is the
        representative's orderer (it knows exactly which entries still
        lack element ``instance``, including committed-but-unexecuted
        ones whose engine slots were already pruned) plus the follower
        slots and our own outstanding proposals.
        """
        state = self.instances[instance]
        log = self.takeover_logs.setdefault(instance, [])
        known = self.archive.setdefault(instance, {})
        # Replay in timestamp order: stream receivers apply the log
        # in sequence, and the orderer's lower-bound inference assumes
        # each assigner's values arrive non-decreasing. (The frozen
        # sweep below appends a single value >= all of these.)
        replay = sorted(
            (
                (g, s, t)
                for (g, s), t in state.takeover_known.items()
                if (g, s) not in known
            ),
            key=lambda a: (a[2], a[0], a[1]),
        )
        if replay:
            log.extend(replay)
            self._notify_ts(node, [(instance, g, s, t) for (g, s, t) in replay])
        if known:
            state.frozen_clock = max(state.frozen_clock, max(known.values()))
        frozen = state.frozen_clock
        assignments: List[Tuple[int, int, int]] = []
        seen: Set[Tuple[int, int]] = set()

        def need(gid: int, seq: int) -> None:
            if gid != instance and (gid, seq) not in seen and (gid, seq) not in known:
                seen.add((gid, seq))
                assignments.append((gid, seq, frozen))

        for gid, seq in node.orderer.unstamped(instance):
            need(gid, seq)
        for other_instance, other_state in self.instances.items():
            if other_instance == instance:
                continue
            for seq in other_state.slots:
                need(other_instance, seq)
        for seq in self.instances[self.gid].outstanding:
            need(self.gid, seq)
        if assignments:
            log.extend(assignments)
            self._notify_ts(
                node, [(instance, g, s, t) for (g, s, t) in assignments]
            )

    def _takeover_assign(self, node, gid: int, seq: int) -> None:
        """While leading a takeover, stamp new entries with the frozen clock.

        Appended to the takeover stream log — the periodic flush delivers
        (and redelivers) it to every live representative."""
        for instance, state in self.instances.items():
            if state.takeover_leader != self.gid or instance == gid:
                continue
            if (gid, seq) in self.archive.get(instance, {}):
                continue
            self.takeover_logs[instance].append((gid, seq, state.frozen_clock))
            self._notify_ts(node, [(instance, gid, seq, state.frozen_clock)])
