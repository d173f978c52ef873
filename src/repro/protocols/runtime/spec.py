"""Protocol specification: what distinguishes one geo-protocol from another.

A :class:`ProtocolSpec` is pure configuration — transport choice, global
consensus style, ordering discipline — interpreted by the stage modules
in this package. Its validated strings are the one way a stage is
chosen: each stage module owns the branch that builds the
implementation its string names, so a new protocol is a new spec value
plus, at most, a new branch in the stage it changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ProtocolSpec:
    """What distinguishes one geo-consensus protocol from another here.

    ``transport``: "leader" | "bijective" | "encoded".
    ``global_consensus``: "raft" (propose/accept/commit), "none" (direct
    broadcast, GeoBFT), "serial" (one global slot at a time, Steward).
    ``ordering``: "round" | "async" | "sequence".
    ``epoch_slots``: ISS-style epoch gating (entries per epoch), or None.
    ``unsafe_commit_quorum``: TEST-ONLY override of the global commit
    quorum (normally ``f_g + 1`` accepting groups). Setting it below the
    real quorum deliberately breaks agreement under group crashes; it
    exists so :mod:`repro.check` can prove its invariants detect real
    protocol bugs. Never set it in a benchmark or production spec.
    """

    name: str
    transport: str
    global_consensus: str
    ordering: str
    overlap_vts: bool = True
    epoch_slots: Optional[int] = None
    multi_master: bool = True
    unsafe_commit_quorum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.transport not in ("leader", "bijective", "encoded"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.global_consensus not in ("raft", "none", "serial"):
            raise ValueError(f"unknown global consensus {self.global_consensus!r}")
        if self.ordering not in ("round", "async", "sequence"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.ordering == "async" and self.global_consensus != "raft":
            raise ValueError("asynchronous VTS ordering requires global Raft")
        if self.unsafe_commit_quorum is not None and self.unsafe_commit_quorum < 1:
            raise ValueError("unsafe_commit_quorum must be >= 1 when set")
