"""Named protocol specifications (Table II plus the Fig 12 ablations).

============  ============  =================  =========  =============
System        Replication   Global consensus   Ordering   Coding
============  ============  =================  =========  =============
massbft       encoded       raft               async      erasure-coded
baseline      leader        raft               round      entire block
geobft        leader        broadcast (none)   round      entire block
steward       leader        serialized slots   sequence   entire block
iss           leader        raft + epochs      round      entire block
br            bijective     raft               round      entire block
ebr           encoded       raft               round      erasure-coded
============  ============  =================  =========  =============
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.protocols.runtime.spec import ProtocolSpec


def massbft(overlap_vts: bool = True) -> ProtocolSpec:
    """MassBFT: encoded bijective replication + asynchronous VTS ordering."""
    return ProtocolSpec(
        name="MassBFT",
        transport="encoded",
        global_consensus="raft",
        ordering="async",
        overlap_vts=overlap_vts,
    )


def baseline() -> ProtocolSpec:
    """The paper's Baseline (Section II-A): leader unicast + Raft + rounds."""
    return ProtocolSpec(
        name="Baseline",
        transport="leader",
        global_consensus="raft",
        ordering="round",
    )


def geobft() -> ProtocolSpec:
    """GeoBFT: direct broadcast, no global consensus, round ordering."""
    return ProtocolSpec(
        name="GeoBFT",
        transport="leader",
        global_consensus="none",
        ordering="round",
    )


def steward() -> ProtocolSpec:
    """Steward: one group proposes at a time into a global slot sequence."""
    return ProtocolSpec(
        name="Steward",
        transport="leader",
        global_consensus="serial",
        ordering="sequence",
        multi_master=False,
    )


def iss(epoch_slots: int = 5) -> ProtocolSpec:
    """ISS with Steward-style SB: Baseline plus epoch-gated proposals.

    The paper uses 0.1 s epochs with a 20 ms batch timeout — five entry
    slots per epoch, hence ``epoch_slots=5``.
    """
    return ProtocolSpec(
        name="ISS",
        transport="leader",
        global_consensus="raft",
        ordering="round",
        epoch_slots=epoch_slots,
    )


def br() -> ProtocolSpec:
    """Ablation: bijective full-copy replication only (Fig 12)."""
    return ProtocolSpec(
        name="BR",
        transport="bijective",
        global_consensus="raft",
        ordering="round",
    )


def ebr() -> ProtocolSpec:
    """Ablation: encoded bijective replication, synchronous ordering."""
    return ProtocolSpec(
        name="EBR",
        transport="encoded",
        global_consensus="raft",
        ordering="round",
    )


def massbft_weak() -> ProtocolSpec:
    """TEST-ONLY: MassBFT with the global commit quorum weakened to 1.

    A group then commits its own entries as soon as local PBFT certifies
    them — before any peer group holds the entry — so a group crash can
    lose globally committed entries. This variant exists solely so
    :mod:`repro.check` can demonstrate that its invariants detect real
    agreement bugs (soundness *and* sensitivity); never benchmark it.
    """
    return replace(massbft(), name="MassBFT-weak", unsafe_commit_quorum=1)


_FACTORIES = {
    "massbft": massbft,
    "baseline": baseline,
    "geobft": geobft,
    "steward": steward,
    "iss": iss,
    "br": br,
    "ebr": ebr,
    "ebr+a": massbft,  # Fig 12's name for full MassBFT
    "massbft-weak": massbft_weak,  # test-only, for repro.check sensitivity
}


def protocol_by_name(name: str) -> ProtocolSpec:
    """Resolve a protocol spec from its (case-insensitive) name.

    Tweak a field with :func:`dataclasses.replace` (which re-validates)
    or with the factory's own arguments, e.g. ``massbft(overlap_vts=False)``.
    """
    factory = _FACTORIES.get(name.lower())
    if factory is None:
        raise ValueError(
            f"unknown protocol {name!r}; known: {sorted(_FACTORIES)}"
        )
    return factory()


def feature_table() -> Dict[str, Dict[str, str]]:
    """Table II's qualitative feature comparison, as data."""
    return {
        "Steward": {
            "multi_master": "N",
            "replication": "One-way",
            "consensus": "Raft",
            "ordering": "-",
            "coding": "Entire block",
        },
        "ISS": {
            "multi_master": "Y",
            "replication": "One-way",
            "consensus": "Raft+Epoch",
            "ordering": "Sync.",
            "coding": "Entire block",
        },
        "GeoBFT": {
            "multi_master": "Y",
            "replication": "One-way",
            "consensus": "Broadcast",
            "ordering": "Sync.",
            "coding": "Entire block",
        },
        "Baseline": {
            "multi_master": "Y",
            "replication": "One-way",
            "consensus": "Raft",
            "ordering": "Sync.",
            "coding": "Entire block",
        },
        "MassBFT": {
            "multi_master": "Y",
            "replication": "Bijective",
            "consensus": "Raft",
            "ordering": "Async.",
            "coding": "Erasure-coded",
        },
        # The Fig 12 ablation rungs between Baseline and full MassBFT.
        "BR": {
            "multi_master": "Y",
            "replication": "Bijective",
            "consensus": "Raft",
            "ordering": "Sync.",
            "coding": "Entire block",
        },
        "EBR": {
            "multi_master": "Y",
            "replication": "Bijective",
            "consensus": "Raft",
            "ordering": "Sync.",
            "coding": "Erasure-coded",
        },
    }
