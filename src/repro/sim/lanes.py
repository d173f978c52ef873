"""Laned simulation kernel: per-group event lanes, conservatively synced.

MassBFT's design thesis — intra-group traffic dominates, WAN crossings are
rare and slow — is exactly the property that makes a *sharded* event core
correct: each consensus group's events can advance independently as long
as no lane runs past the point where another lane's message could still
reach it. That bound is the **conservative lookahead**: the minimum
one-way WAN latency between groups living in different lanes (classic
Chandy-Misra-Bryant null-message reasoning, with the WAN RTT matrix as
the lookahead source).

Three pieces live here:

* :class:`LanePlan` — the static partition of consensus groups onto event
  lanes (plus lane 0, the WAN lane, owning deployment-global events), and
  the lookahead derived from a cluster's RTT matrix.

* :class:`LanedSimulator` — a drop-in :class:`~repro.sim.core.Simulator`
  that executes the exact classic ``(time, seq)`` total order (so every
  existing scenario stays *byte-identical* at any worker count) while
  attributing every event to its lane, routing cross-group deliveries to
  the destination lane, and *measuring* the conservative-slack margin of
  every cross-lane message. It is the production kernel behind
  ``repro run --kernel laned``: correctness first, with the lane
  bookkeeping proving (per run) that decoupled execution would have been
  admissible — ``lane_report.min_cross_slack >= lookahead``.

* :class:`LanedEngine` — genuinely decoupled execution for
  *lane-isolated* simulations (each lane owns its state; lanes interact
  only through timestamped messages). Lanes advance in horizon rounds;
  inter-lane messages are merged deterministically by
  ``(arrival, src_lane, seq)``, so 1-worker in-process, N-worker
  in-process, and N-worker multiprocessing executions produce
  bit-identical per-lane digests. The lane-scaling benchmark
  (:mod:`repro.perf.lanebench`) runs on this engine.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim import laneio
from repro.sim.core import SimulationBudgetExceeded, Simulator
from repro.sim.events import Event

#: Lane 0 owns deployment-global machinery (slot tokens, fault injection,
#: reconfig schedules) and cross-group transit accounting.
WAN_LANE = 0

#: An inter-lane message: ``(arrival, src_lane, seq, dst_lane, payload)``.
#: Sorting by the first three fields is the deterministic merge order.
InterLaneMsg = Tuple[float, int, int, int, Any]


@dataclass(frozen=True)
class LanePlan:
    """Partition of consensus groups onto event lanes.

    Group lanes are numbered ``1..n_lanes``; lane ``0`` (:data:`WAN_LANE`)
    is reserved for deployment-global events. Groups map to lanes in
    balanced contiguous blocks, so co-located groups share a lane when
    there are fewer lanes than groups.
    """

    n_groups: int
    n_lanes: int
    #: Conservative lookahead window (seconds): no message between groups
    #: in *different* lanes can arrive sooner than this after its send.
    lookahead: float
    name: str = "lanes"

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("a lane plan needs at least one group")
        if not 1 <= self.n_lanes <= self.n_groups:
            raise ValueError(
                f"lane count must be in 1..{self.n_groups}, got {self.n_lanes}"
            )
        if self.lookahead <= 0:
            raise ValueError(f"lookahead must be positive, got {self.lookahead}")

    @classmethod
    def from_cluster(
        cls, cluster, lanes: Optional[int] = None, name: Optional[str] = None
    ) -> "LanePlan":
        """Derive a plan (and its lookahead) from a cluster's RTT matrix.

        The lookahead is the minimum one-way latency over group pairs
        that land in *different* lanes — pairs sharing a lane interact
        without a synchronization horizon, so they do not constrain it.
        A single-lane plan has no cross-lane pair and gets an infinite
        lookahead (the lane free-runs).
        """
        n_groups = cluster.n_groups
        n_lanes = n_groups if lanes is None else max(1, min(lanes, n_groups))

        def lane_of(gid: int) -> int:
            return 1 + gid * n_lanes // n_groups

        cross = [
            rtt / 2.0
            for (i, j), rtt in cluster.rtt_matrix.items()
            if lane_of(i) != lane_of(j)
        ]
        lookahead = min(cross) if cross else math.inf
        return cls(
            n_groups=n_groups,
            n_lanes=n_lanes,
            lookahead=lookahead,
            name=name or f"{cluster.name}/{n_lanes}l",
        )

    @property
    def total_lanes(self) -> int:
        """Group lanes plus the WAN lane."""
        return self.n_lanes + 1

    def lane_of_group(self, gid: int) -> int:
        """The lane owning group ``gid`` (balanced contiguous blocks)."""
        if not 0 <= gid < self.n_groups:
            raise ValueError(f"group {gid} outside 0..{self.n_groups - 1}")
        return 1 + gid * self.n_lanes // self.n_groups

    def groups_of_lane(self, lane: int) -> List[int]:
        return [
            g for g in range(self.n_groups) if self.lane_of_group(g) == lane
        ]

    def worker_of_lane(self, lane: int, workers: int) -> int:
        """Contiguous assignment of group lanes onto ``workers`` workers.

        The WAN lane rides with worker 0. The assignment is pure
        bookkeeping for the strict kernel and the actual process
        partition for :class:`LanedEngine`.
        """
        if workers < 1:
            raise ValueError("need at least one worker")
        if lane == WAN_LANE:
            return 0
        return (lane - 1) * min(workers, self.n_lanes) // self.n_lanes

    def describe(self) -> str:
        la = "inf" if math.isinf(self.lookahead) else f"{self.lookahead * 1000:.1f}ms"
        return (
            f"{self.name}: {self.n_groups} groups on {self.n_lanes} lanes "
            f"(+wan), lookahead {la}"
        )


class LanedSimulator(Simulator):
    """Strict laned kernel: classic total order with lane attribution.

    Drop-in for :class:`Simulator`. Every event carries the lane it was
    scheduled from (or explicitly posted to), the run loop tracks the
    executing lane, and cross-lane posts record their conservative slack
    (``arrival - send``). Execution order is the classic global
    ``(time, seq)`` order, so outputs are byte-identical to the classic
    kernel for every scenario, at any (bookkept) worker count — while
    :meth:`lane_report` quantifies how decoupled the run *could* have
    been: ``cross_lane_events / events`` and ``min_cross_slack`` versus
    the plan's lookahead.
    """

    def __init__(self, plan: LanePlan, workers: int = 1) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("need at least one worker")
        self.plan = plan
        self.workers = workers
        self.current_lane = WAN_LANE
        self.events_by_lane = [0] * plan.total_lanes
        self.cross_lane_posts = 0
        self.min_cross_slack = math.inf

    # -- lane context --------------------------------------------------

    @contextmanager
    def lane_context(self, lane: int) -> Iterator[None]:
        """Attribute events scheduled inside the block to ``lane``.

        Used by the composition root while building each group (nodes,
        timers, client load), so a group's whole event tree inherits its
        lane.
        """
        previous = self.current_lane
        self.current_lane = lane
        try:
            yield
        finally:
            self.current_lane = previous

    # -- scheduling (lane-tagging wrappers) ----------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        event = super().schedule(delay, callback, *args)
        event.lane = self.current_lane
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        event = super().schedule_at(time, callback, *args)
        event.lane = self.current_lane
        return event

    def schedule_volatile(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        event = super().schedule_volatile(delay, callback, *args)
        event.lane = self.current_lane
        return event

    def schedule_at_volatile(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        event = super().schedule_at_volatile(time, callback, *args)
        event.lane = self.current_lane
        return event

    def schedule_reserved(
        self, time: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        event = super().schedule_reserved(time, seq, callback, *args)
        event.lane = self.current_lane
        return event

    def post_volatile(
        self, lane: int, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Fire-and-forget :meth:`post` (cross-lane deliveries are never
        cancelled, so the delivery events can live on the freelist)."""
        event = super().schedule_at_volatile(time, callback, *args)
        event.lane = lane
        if lane != self.current_lane:
            self.cross_lane_posts += 1
            slack = time - self._now
            if slack < self.min_cross_slack:
                self.min_cross_slack = slack

    def post(
        self, lane: int, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule an event *into* ``lane`` at absolute ``time``.

        The inter-lane channel: cross-group network deliveries land in
        the destination group's lane through here. Cross-lane posts
        record their slack so :meth:`lane_report` can verify the
        conservative-lookahead assumption held for the whole run.
        """
        event = super().schedule_at(time, callback, *args)
        event.lane = lane
        if lane != self.current_lane:
            self.cross_lane_posts += 1
            slack = time - self._now
            if slack < self.min_cross_slack:
                self.min_cross_slack = slack
        return event

    # -- run loop ------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        exclusive: bool = False,
    ) -> float:
        """Classic total-order run loop plus per-lane accounting."""
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        if exclusive and until is None:
            raise ValueError("exclusive runs need an explicit until bound")
        self._running = True
        self._stopped = False
        processed_this_run = 0
        pop_until = self._queue.pop_before if exclusive else self._queue.pop_until
        recycle = self._queue.recycle
        events_by_lane = self.events_by_lane
        try:
            while not self._stopped:
                if max_events is not None and processed_this_run >= max_events:
                    break
                event = pop_until(until)
                if event is None:
                    break
                self._now = event.time
                self._seq_now = event.seq
                lane = event.lane
                if lane is not None:
                    self.current_lane = lane
                    events_by_lane[lane] += 1
                event.callback(*event.args)
                if event.volatile:
                    recycle(event)
                self.events_processed += 1
                processed_this_run += 1
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
            for hook in self._shutdown_hooks:
                hook()
            self._shutdown_hooks.clear()
        return self._now

    # -- reporting -----------------------------------------------------

    def lane_report(self) -> Dict[str, Any]:
        """Per-lane event counts and the conservative-slack verdict."""
        total = sum(self.events_by_lane)
        cross = self.cross_lane_posts
        return {
            "plan": self.plan.describe(),
            "lanes": self.plan.total_lanes,
            "workers": self.workers,
            "lookahead": self.plan.lookahead,
            "events_by_lane": list(self.events_by_lane),
            "events": total,
            "cross_lane_posts": cross,
            "cross_lane_fraction": cross / total if total else 0.0,
            "min_cross_slack": self.min_cross_slack,
            # The decoupling admissibility check: every cross-lane message
            # left at least a lookahead of slack, so horizon-round
            # execution of this run would have been conservative-safe.
            "conservative_ok": (
                cross == 0 or self.min_cross_slack >= self.plan.lookahead - 1e-12
            ),
        }


# ----------------------------------------------------------------------
# Decoupled horizon-round execution for lane-isolated simulations
# ----------------------------------------------------------------------


@dataclass
class EngineResult:
    """Outcome of one :class:`LanedEngine` run."""

    digests: Dict[int, str]
    stats: Dict[int, Dict[str, Any]]
    events: int
    rounds: int
    min_post_slack: float = math.inf

    def merged_digest(self) -> str:
        """Order-independent fingerprint over all lanes (for byte diffs)."""
        acc = 0xCBF29CE484222325
        for lane in sorted(self.digests):
            for token in (str(lane), self.digests[lane]):
                for byte in token.encode():
                    acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return f"{acc:016x}"


class _LaneHost:
    """Runs a subset of lanes inside one process.

    Lane *programs* are duck-typed: ``sim`` (a :class:`Simulator`),
    ``start(post)`` (schedule initial events; ``post(dst_lane, arrival,
    payload)`` is the only cross-lane channel), ``deliver(arrival,
    src_lane, payload)`` (an inbound message; must schedule, not
    execute), ``digest()`` and ``stats()``.
    """

    def __init__(
        self,
        factories: Dict[int, Callable[[], Any]],
        lookahead: float,
    ) -> None:
        self.lookahead = lookahead
        self.programs: Dict[int, Any] = {}
        self.outbox: List[InterLaneMsg] = []
        self.min_post_slack = math.inf
        self._post_seq: Dict[int, int] = {}
        self._factories = factories

    def start(self) -> Dict[int, Optional[float]]:
        for lane in sorted(self._factories):
            program = self._factories[lane]()
            self.programs[lane] = program
            self._post_seq[lane] = 0
            program.start(self._make_post(lane, program))
        return self.floors()

    def _make_post(self, src_lane: int, program: Any):
        def post(dst_lane: int, arrival: float, payload: Any) -> None:
            slack = arrival - program.sim.now
            if slack < self.lookahead - 1e-12:
                raise ValueError(
                    f"lane {src_lane} posted a message arriving {slack:.6f}s "
                    f"after send, inside the conservative lookahead "
                    f"({self.lookahead:.6f}s) — the lane plan is unsound for "
                    f"this workload"
                )
            if slack < self.min_post_slack:
                self.min_post_slack = slack
            seq = self._post_seq[src_lane]
            self._post_seq[src_lane] = seq + 1
            self.outbox.append((arrival, src_lane, seq, dst_lane, payload))

        return post

    def floors(self) -> Dict[int, Optional[float]]:
        return {
            lane: program.sim._queue.peek_time()
            for lane, program in self.programs.items()
        }

    def run_round(
        self,
        horizon: float,
        final: bool,
        inbound: List[InterLaneMsg],
        max_events: Optional[int] = None,
    ) -> Tuple[Dict[int, Optional[float]], List[InterLaneMsg], int]:
        """Merge ``inbound`` (already globally sorted) and advance lanes.

        Non-final rounds are horizon-*exclusive*; the final round is
        inclusive so events scheduled exactly at ``until`` run, matching
        the classic kernel's ``run(until=...)`` semantics.
        """
        for arrival, src_lane, _seq, dst_lane, payload in inbound:
            self.programs[dst_lane].deliver(arrival, src_lane, payload)
        processed = 0
        for lane in sorted(self.programs):
            program = self.programs[lane]
            budget = None if max_events is None else max_events - processed
            if budget is not None and budget <= 0:
                budget = 0
            before = program.sim.events_processed
            program.sim.run(
                until=horizon, max_events=budget, exclusive=not final
            )
            delta = program.sim.events_processed - before
            processed += delta
            if budget is not None and delta >= budget:
                pending = program.sim._queue.peek_time()
                if pending is not None and (final or pending < horizon):
                    raise SimulationBudgetExceeded(max_events or 0, pending)
        outbound = self.outbox
        self.outbox = []
        return self.floors(), outbound, processed

    def finish(self) -> Dict[int, Tuple[str, Dict[str, Any], int]]:
        return {
            lane: (
                program.digest(),
                program.stats(),
                program.sim.events_processed,
            )
            for lane, program in self.programs.items()
        }


def _worker_main(endpoint, factories, lookahead) -> None:  # pragma: no cover - child process
    """Multiprocessing worker: drive a :class:`_LaneHost` over a channel.

    The wire format is the struct-packed frame protocol of
    :mod:`repro.sim.laneio` — no pickle on the per-round path. One frame
    in, one frame out, so the parent's round barrier is a single
    recv per worker.
    """
    host = _LaneHost(factories, lookahead)
    try:
        while True:
            frame = endpoint.recv_bytes()
            op = laneio.frame_op(frame)
            if op == laneio.REQ_START:
                endpoint.send_bytes(laneio.encode_start_reply(host.start()))
            elif op == laneio.REQ_ROUND:
                horizon, final, budget, inbound = laneio.decode_round_request(
                    frame
                )
                try:
                    floors, outbound, processed = host.run_round(
                        horizon, final, inbound, budget
                    )
                except SimulationBudgetExceeded as exc:
                    endpoint.send_bytes(
                        laneio.encode_budget_reply(
                            exc.max_events, exc.pending_time
                        )
                    )
                else:
                    endpoint.send_bytes(
                        laneio.encode_round_reply(
                            floors, outbound, processed, host.min_post_slack
                        )
                    )
            elif op == laneio.REQ_FINISH:
                endpoint.send_bytes(laneio.encode_finish_reply(host.finish()))
                return
    except (EOFError, KeyboardInterrupt):
        return
    except Exception as exc:  # surface unexpected failures to the parent
        try:
            endpoint.send_bytes(
                laneio.encode_error_reply(f"{type(exc).__name__}: {exc}")
            )
        except Exception:
            pass


class LanedEngine:
    """Conservative horizon-round driver over independent lane programs.

    Correctness contract (checked at post time): every cross-lane message
    arrives at least ``lookahead`` after its send. Under that contract,
    each round may safely run every lane up to
    ``min(next pending time over all lanes and in-flight messages)
    + lookahead`` — no message generated this round can be needed before
    the next round's merge. Inter-lane messages merge in
    ``(arrival, src_lane, seq)`` order, so execution is bit-identical for
    any partition of lanes onto workers, in-process or across processes.

    ``workers > 1`` forks one process per worker (lane factories are
    inherited — fork means nothing is pickled on the way in). Cross-lane
    messages travel as struct-packed :mod:`repro.sim.laneio` frames over
    shared-memory rings by default (``transport="shm"``), with a plain
    ``Pipe`` as the selectable fallback (``transport="pipe"``, or the
    ``REPRO_LANE_TRANSPORT`` environment variable); both transports carry
    identical frames, so digests never depend on the choice. On a
    single-core host this still exercises the full coordination path —
    the *speedup* simply tracks the cores available.
    """

    def __init__(
        self,
        factories: Dict[int, Callable[[], Any]],
        lookahead: float,
        workers: int = 1,
        transport: Optional[str] = None,
    ) -> None:
        if not factories:
            raise ValueError("need at least one lane")
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        if len(factories) > 1 and math.isinf(lookahead):
            raise ValueError(
                "multiple lanes need a finite lookahead (derive one from the "
                "cluster RTT matrix via LanePlan.from_cluster)"
            )
        if workers < 1:
            raise ValueError("need at least one worker")
        self.factories = dict(factories)
        self.lookahead = lookahead
        self.workers = min(workers, len(factories))
        self.transport = (
            transport
            or os.environ.get("REPRO_LANE_TRANSPORT", "").strip()
            or "shm"
        )
        if self.transport not in ("shm", "pipe"):
            raise ValueError(
                f"unknown lane transport {self.transport!r} (shm|pipe)"
            )

    # -- partitioning --------------------------------------------------

    def _partitions(self) -> List[Dict[int, Callable[[], Any]]]:
        lanes = sorted(self.factories)
        parts: List[Dict[int, Callable[[], Any]]] = [
            {} for _ in range(self.workers)
        ]
        for i, lane in enumerate(lanes):
            parts[i * self.workers // len(lanes)][lane] = self.factories[lane]
        return [p for p in parts if p]

    # -- drivers -------------------------------------------------------

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> EngineResult:
        if self.workers == 1:
            return self._run_inline(until, max_events)
        return self._run_forked(until, max_events)

    def _coordinate(
        self,
        lane_floors: Dict[int, Optional[float]],
        do_round: Callable[
            [float, bool, List[InterLaneMsg], Optional[int]],
            Tuple[Dict[int, Optional[float]], List[InterLaneMsg], int],
        ],
        until: Optional[float],
        max_events: Optional[int],
    ) -> Tuple[int, int]:
        """Shared round loop; returns (events, rounds)."""
        pending: List[InterLaneMsg] = []
        events = 0
        rounds = 0
        while True:
            candidates = [t for t in lane_floors.values() if t is not None]
            candidates.extend(msg[0] for msg in pending)
            if not candidates:
                break
            floor = min(candidates)
            if until is not None and floor > until:
                break
            horizon = floor + self.lookahead
            final = False
            if math.isinf(horizon):
                if until is None:
                    # Single free-running horizon: no cross-lane pair
                    # bounds it, so one inclusive round drains everything.
                    horizon = math.inf
                    final = True
                else:
                    horizon, final = until, True
            elif until is not None and horizon >= until:
                horizon, final = until, True
            pending.sort(key=lambda m: (m[0], m[1], m[2]))
            budget = None if max_events is None else max_events - events
            lane_floors, outbound, processed = do_round(
                horizon, final, pending, budget
            )
            pending = outbound
            events += processed
            rounds += 1
            if max_events is not None and events >= max_events:
                live = [t for t in lane_floors.values() if t is not None]
                live.extend(m[0] for m in pending)
                if live:
                    raise SimulationBudgetExceeded(max_events, min(live))
            if final:
                break
        return events, rounds

    def _run_inline(
        self, until: Optional[float], max_events: Optional[int]
    ) -> EngineResult:
        host = _LaneHost(self.factories, self.lookahead)
        floors = host.start()

        def do_round(horizon, final, inbound, budget):
            return host.run_round(horizon, final, inbound, budget)

        events, rounds = self._coordinate(floors, do_round, until, max_events)
        finished = host.finish()
        return EngineResult(
            digests={lane: d for lane, (d, _s, _e) in finished.items()},
            stats={lane: s for lane, (_d, s, _e) in finished.items()},
            events=events,
            rounds=rounds,
            min_post_slack=host.min_post_slack,
        )

    def _run_forked(
        self, until: Optional[float], max_events: Optional[int]
    ) -> EngineResult:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        parts = self._partitions()
        links: List[Tuple[Any, Dict[int, Callable[[], Any]]]] = []
        channels = []
        procs = []
        try:
            for part in parts:
                channel = laneio.make_channel(ctx, self.transport)
                # Fork inherits the channel (shm block, semaphores, pipe)
                # — Process args are never pickled under the fork method.
                proc = ctx.Process(
                    target=_worker_main,
                    args=(channel.child_end(), part, self.lookahead),
                    daemon=True,
                )
                proc.start()
                channel.after_fork_parent()
                channels.append(channel)
                links.append((channel.parent_end(), part))
                procs.append(proc)

            start_frame = laneio.encode_start_request()
            floors: Dict[int, Optional[float]] = {}
            for end, _part in links:
                end.send_bytes(start_frame)
            for end, _part in links:
                floors.update(self._reply(end, laneio.decode_start_reply))

            min_slack = math.inf

            def do_round(horizon, final, inbound, budget):
                nonlocal min_slack
                # One coalesced flush per worker: every message bound for
                # that worker's lanes rides one struct-packed frame.
                for end, part in links:
                    msgs = [m for m in inbound if m[3] in part]
                    end.send_bytes(
                        laneio.encode_round_request(
                            horizon, final, msgs, budget
                        )
                    )
                new_floors: Dict[int, Optional[float]] = {}
                outbound: List[InterLaneMsg] = []
                processed = 0
                failure: Optional[BaseException] = None
                # Drain every worker's reply before raising: workers that
                # answered normally are back in recv() and must be shut
                # down with a finish frame, not abandoned mid-protocol.
                for end, _part in links:
                    try:
                        floors_w, out_w, done_w, slack_w = self._reply(
                            end, laneio.decode_round_reply
                        )
                    except (
                        SimulationBudgetExceeded,
                        RuntimeError,
                    ) as exc:
                        failure = failure or exc
                        continue
                    new_floors.update(floors_w)
                    outbound.extend(out_w)
                    processed += done_w
                    if slack_w < min_slack:
                        min_slack = slack_w
                if failure is not None:
                    raise failure
                return new_floors, outbound, processed

            finish_frame = laneio.encode_finish_request()
            try:
                events, rounds = self._coordinate(
                    floors, do_round, until, max_events
                )
            except BaseException:
                # Graceful worker shutdown on any coordination failure —
                # shm workers block on a semaphore, so unlike a pipe they
                # never see EOF when the parent dies; tell them to exit.
                for end, _part in links:
                    try:
                        end.send_bytes(finish_frame)
                    except Exception:  # pragma: no cover - dead worker
                        pass
                raise

            digests: Dict[int, str] = {}
            stats: Dict[int, Dict[str, Any]] = {}
            for end, _part in links:
                end.send_bytes(finish_frame)
            for end, _part in links:
                finished = self._reply(end, laneio.decode_finish_reply)
                for lane, (digest, stat, _ev) in finished.items():
                    digests[lane] = digest
                    stats[lane] = stat
            return EngineResult(
                digests=digests,
                stats=stats,
                events=events,
                rounds=rounds,
                min_post_slack=min_slack,
            )
        finally:
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
            for channel in channels:
                try:
                    channel.close()
                except Exception:  # pragma: no cover - cleanup best-effort
                    pass

    @staticmethod
    def _reply(end, decoder):
        """Receive one frame, surface budget/error frames, decode the rest."""
        frame = end.recv_bytes()
        op = laneio.frame_op(frame)
        if op == laneio.REP_BUDGET:
            max_events, pending = laneio.decode_budget_reply(frame)
            raise SimulationBudgetExceeded(max_events, pending)
        if op == laneio.REP_ERROR:
            raise RuntimeError(
                f"lane worker failed: {laneio.decode_error_reply(frame)}"
            )
        return decoder(frame)
