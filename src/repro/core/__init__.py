"""MassBFT core: the paper's primary contribution.

* :mod:`repro.core.entry` — log entries and identifiers.
* :mod:`repro.core.transfer_plan` — Algorithm 1: encoded bijective
  transfer-plan generation.
* :mod:`repro.core.vts` — vector timestamps and group logical clocks.
* :mod:`repro.core.ordering` — Algorithm 2: deterministic asynchronous
  ordering by VTS, plus the round-based synchronous orderer used by the
  baselines.
* :mod:`repro.core.rebuild` — optimistic entry rebuild with Merkle
  bucketing and chunk-ID blacklisting (Section IV-C).
* :mod:`repro.core.replication` — inter-group transports: encoded
  bijective (MassBFT), bijective full-copy (BR), and leader unicast
  (Baseline/GeoBFT/Steward).
* :mod:`repro.core.global_raft` — the group-as-logical-replica global
  Raft engine with overlapped VTS assignment and crashed-group takeover.
* :mod:`repro.core.protocol` — the assembled MassBFT deployment.
"""

from repro.core.entry import EntryId, EntryReleased, LogEntry
from repro.core.ordering import DeterministicOrderer, RoundBasedOrderer
from repro.core.rebuild import OptimisticRebuilder, RebuildResult
from repro.core.transfer_plan import TransferPlan, generate_transfer_plan
from repro.core.vts import GroupClock, VectorTimestamp

__all__ = [
    "DeterministicOrderer",
    "EntryId",
    "EntryReleased",
    "GroupClock",
    "LogEntry",
    "OptimisticRebuilder",
    "RebuildResult",
    "RoundBasedOrderer",
    "TransferPlan",
    "VectorTimestamp",
    "generate_transfer_plan",
]
