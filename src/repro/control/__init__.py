"""Closed-loop adaptive control driven by live telemetry.

The control subsystem watches a running deployment through the same
event-bus signals the benchmarks report on — admission-gate queue
depths, gating stalls by reason, offered/admitted/dropped traffic,
batch formation, commits — and actuates protocol knobs live:

* batch size and batching cadence when execution/ordering dominates the
  Fig 11 breakdown (per-entry overhead amortisation);
* the encoded transport's effective stripe margin
  (``stale_send_backlog``) when dissemination dominates or per-link
  bandwidth is skewed (Fig 14's heterogeneous-bandwidth regime);
* pipeline/round windows against observed queue backlog;
* the client admission window (``queue_seconds``) against sustained
  overload (pairing with the admission-gate shedding).

Determinism contract: every policy is a **pure function of the sampled
telemetry window sequence and the seed** — no wall clock, no RNG draws
at decision time — so the same (seed, schedule) replays the identical
decision sequence, byte for byte.
Each actuation bumps the deployment-wide ``control_epoch`` (mirroring
the membership-epoch invalidation machinery) and publishes a
:class:`~repro.protocols.runtime.events.ControlDecision` on the bus,
so decisions land in run summaries, trace bundles, and check episodes.

Zero-cost-off: nothing in the runtime imports this package unless a
controller is explicitly requested by policy name
(``GeoDeployment(control="aimd")``); controller-off runs are
byte-identical to a build without the subsystem.
"""

from repro.control.policies import (
    AIMDPolicy,
    ControlAction,
    ControlPolicy,
    StaticPolicy,
    TargetPolicy,
    policy_by_name,
)
from repro.control.signals import ControlWindow, KnobView, SignalCollector
from repro.control.stage import ControlStage

__all__ = [
    "AIMDPolicy",
    "ControlAction",
    "ControlPolicy",
    "ControlStage",
    "ControlWindow",
    "KnobView",
    "SignalCollector",
    "StaticPolicy",
    "TargetPolicy",
    "policy_by_name",
]

