"""Local (intra-group) consensus: PBFT.

* :class:`~repro.consensus.pbft.ModeledPbftGroup` is what every
  deployment runs: the aggregate model of one group's PBFT round (one
  commit time per member, delivered at the leader; LAN bytes billed;
  quorum certificates signed on first read).
* :class:`~repro.consensus.pbft.PbftReplica` is the message-level
  implementation (Section II-A: pre-prepare/prepare/commit, the
  prepare-skipping accept variant, view changes, checkpoints). Only its
  unit tests drive it today; ROADMAP item 3 wires it in as the
  message-level local stage and validates the model against it.

Global consensus does not live here: the group-as-replica Raft messages
and per-instance state are :mod:`repro.core.global_raft`, run by
:mod:`repro.protocols.runtime.global_phase`; Steward's serial slot is
:mod:`repro.protocols.runtime.slots`.
"""

from repro.consensus.messages import wire_size
from repro.consensus.pbft import PbftConfig, PbftReplica, ModeledPbftGroup

__all__ = [
    "ModeledPbftGroup",
    "PbftConfig",
    "PbftReplica",
    "wire_size",
]
