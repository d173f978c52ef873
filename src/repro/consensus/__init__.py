"""Local (intra-group) consensus: PBFT.

:class:`~repro.consensus.pbft.ModeledPbftGroup` is what every deployment
runs: the closed-form model of one group's PBFT round (one commit time
per member, delivered at the leader; LAN bytes billed; quorum
certificates signed on first read).

Global consensus does not live here: the group-as-replica Raft messages
and per-instance state are :mod:`repro.core.global_raft`, run by
:mod:`repro.protocols.runtime.global_phase`; Steward's serial slot is
:mod:`repro.protocols.runtime.slots`.
"""

from repro.consensus.pbft import ModeledPbftGroup

__all__ = ["ModeledPbftGroup"]
