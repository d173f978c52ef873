"""The control stage: periodic tick, knob actuation, decision events.

One :class:`ControlStage` per deployment. A repeating simulator timer
drains the :class:`~repro.control.signals.SignalCollector` into
per-group windows, asks the policy for actions, and applies each one at
its actuation point:

==================== ===================================================
knob                 actuation point
==================== ===================================================
``max_batch_txns``   the group's ``LoadStage.max_batch_txns`` copy
``batch_timeout``    the group's batch :class:`~repro.sim.core.Timer`
                     interval (takes effect at the next tick —
                     deterministic, no re-scheduling)
``pipeline_window``  ``LoadStage.pipeline_window``
``round_window``     ``LoadStage.round_window``
``queue_seconds``    the group's :class:`ClientLoad` admission window
``stale_send_backlog`` the encoded transport's stale-send margin
                     (deployment-wide; the effective-stripe knob)
==================== ===================================================

Every applied change publishes a
:class:`~repro.protocols.runtime.events.ControlDecision` and bumps the
deployment-wide ``control_epoch`` (mirrored onto the simulator so
budget-exceeded diagnostics and reconfig joins can carry it). Membership
changes invalidate the affected group's accumulating window — a
mid-reconfig actuation must never act on signals sampled under the old
membership.
"""

from __future__ import annotations

from typing import Dict, List

from repro.control.policies import ControlAction, ControlPolicy
from repro.control.signals import KnobView, SignalCollector
from repro.protocols.runtime.events import ControlDecision, ReconfigApplied
from repro.protocols.runtime.load import (
    BATCH_TIMEOUT,
    CLIENT_QUEUE_SECONDS,
    PIPELINE_WINDOW,
    ROUND_WINDOW,
)

#: Reconfig kinds that change the group's membership or leadership (QoS
#: ops like region degradation keep the window: same nodes, same links).
_MEMBERSHIP_KINDS = frozenset(
    {"join", "leave", "resize", "leader_move"}
)

#: Default control interval: a handful of batch timeouts — long enough
#: for gate/traffic counters to be meaningful, short enough to react
#: within a flash crowd's ramp.
DEFAULT_INTERVAL = 0.25


class ControlStage:
    """Closed-loop adaptive control for one deployment."""

    def __init__(
        self,
        deployment,
        policy: ControlPolicy,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.deployment = deployment
        self.policy = policy
        self.interval = interval
        self.collector = SignalCollector(deployment.bus, deployment.n_groups)
        self.decisions: List[ControlDecision] = []
        self._last_tick = 0.0
        # Baseline of the one deployment-wide knob; the per-group ones
        # start at the load stage's constants.
        transport = deployment.transport
        self._base_stale = getattr(transport, "stale_send_backlog", 0.0)
        self._has_stale = hasattr(transport, "stale_send_backlog")
        deployment.bus.subscribe(ReconfigApplied, self._on_reconfig)
        # Offset past the batch timers' per-group desync offsets so a
        # control tick always observes that instant's gate evaluations.
        self.timer = deployment.sim.set_timer(
            interval + 9e-4, self._tick, interval=interval
        )

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _on_reconfig(self, event: ReconfigApplied) -> None:
        if event.kind in _MEMBERSHIP_KINDS:
            self.on_membership_change(event.gid)

    def on_membership_change(self, gid: int) -> None:
        """Drop group ``gid``'s accumulating window and rule streaks.

        Called on every membership change, and again by the reconfig
        stage when it detects that an actuation landed while a join was
        in flight (the control epoch it captured at schedule time no
        longer matches the live one).
        """
        self.collector.reset_group(gid)
        reset = getattr(self.policy, "reset_group", None)
        if reset is not None:
            reset(gid)

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------

    def _knob_views(self) -> Dict[int, KnobView]:
        deployment = self.deployment
        views: Dict[int, KnobView] = {}
        for gid, group in deployment.groups.items():
            stage = group.load_stage
            views[gid] = KnobView(
                max_batch_txns=stage.max_batch_txns,
                batch_timeout=deployment.batch_timers[gid]._interval,
                pipeline_window=stage.pipeline_window,
                round_window=stage.round_window,
                queue_seconds=stage.load.queue_seconds,
                stale_send_backlog=(
                    deployment.transport.stale_send_backlog
                    if self._has_stale
                    else 0.0
                ),
                wan_backlog_cap=stage.wan_backlog_cap,
                cpu_backlog_cap=stage.cpu_backlog_cap,
                base_max_batch_txns=deployment.max_batch_txns,
                base_batch_timeout=BATCH_TIMEOUT,
                base_pipeline_window=PIPELINE_WINDOW,
                base_round_window=ROUND_WINDOW,
                base_queue_seconds=CLIENT_QUEUE_SECONDS,
                base_stale_send_backlog=self._base_stale,
            )
        return views

    def _tick(self) -> None:
        deployment = self.deployment
        now = deployment.sim.now
        windows = self.collector.drain(self._last_tick, now, deployment)
        self._last_tick = now
        actions = self.policy.decide(windows, self._knob_views())
        for action in actions:
            self._apply(action, now)

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------

    def _apply(self, action: ControlAction, now: float) -> None:
        deployment = self.deployment
        gid = action.gid
        group = deployment.groups[gid]
        stage = group.load_stage
        knob = action.knob
        value = action.value
        if knob == "max_batch_txns":
            old = float(stage.max_batch_txns)
            new = float(max(1, int(value)))
            if new == old:
                return
            stage.max_batch_txns = int(new)
        elif knob == "batch_timeout":
            timer = deployment.batch_timers[gid]
            old = float(timer._interval)
            new = max(1e-3, float(value))
            if new == old:
                return
            # Next-tick effect: the already-scheduled firing stands, the
            # repush after it uses the new interval.
            timer._interval = new
        elif knob == "pipeline_window":
            old = float(stage.pipeline_window)
            new = float(max(1, int(value)))
            if new == old:
                return
            stage.pipeline_window = int(new)
        elif knob == "round_window":
            old = float(stage.round_window)
            new = float(max(1, int(value)))
            if new == old:
                return
            stage.round_window = int(new)
        elif knob == "queue_seconds":
            load = stage.load
            old = float(load.queue_seconds)
            new = max(1e-3, float(value))
            if new == old:
                return
            load.queue_seconds = new
        elif knob == "stale_send_backlog":
            if not self._has_stale:
                return
            transport = deployment.transport
            old = float(transport.stale_send_backlog)
            new = max(0.01, float(value))
            if new == old:
                return
            transport.stale_send_backlog = new
        else:
            raise ValueError(f"unknown control knob {knob!r}")

        deployment.control_epoch += 1
        deployment.sim.control_epoch = deployment.control_epoch
        decision = ControlDecision(
            at=now,
            gid=gid,
            knob=knob,
            old=old,
            new=new,
            trigger=action.trigger,
            value=action.signal,
            policy=self.policy.name,
            epoch=deployment.control_epoch,
        )
        self.decisions.append(decision)
        deployment.bus.publish(decision)
