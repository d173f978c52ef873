"""Traffic specifications: what a deployment's clients offer, per group.

A :class:`TrafficSpec` bundles an arrival-process recipe (instantiated
per group from that group's dedicated rng stream), an optional
:class:`~repro.traffic.tenancy.TenantMix`, and an optional
:class:`~repro.traffic.hotspot.HotspotDrift` description. The deployment
calls :meth:`process_for` and :meth:`tenants_for` and reads
:attr:`tenants` without importing :mod:`repro.traffic`, so
constant-rate deployments pay nothing.

``peak_rate`` per group is what admission sizing (``max_batch_txns``)
and goodput normalisation use; for bursty processes it is the envelope
rate, not the mean.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.traffic.arrivals import (
    ArrivalProcess,
    ConstantCurve,
    ConstantRate,
    FlashCrowdCurve,
    MMPPProcess,
    PoissonProcess,
    RateCurve,
)
from repro.traffic.hotspot import HotspotDrift
from repro.traffic.tenancy import TenantMix

ProcessFactory = Callable[[int, random.Random], ArrivalProcess]


class TrafficSpec:
    """A named, per-group recipe for offered traffic."""

    def __init__(
        self,
        name: str,
        make_process: ProcessFactory,
        peak_rates: Mapping[int, float],
        tenants: Optional[TenantMix] = None,
        hotspot: Optional[HotspotDrift] = None,
        detail: Optional[dict] = None,
        tenants_by_group: Optional[Mapping[int, TenantMix]] = None,
    ) -> None:
        self.name = name
        self._make_process = make_process
        self.peak_rates: Dict[int, float] = dict(peak_rates)
        self.tenants = tenants
        self.hotspot = hotspot
        self.detail = detail or {}
        # Per-group tenant asymmetry: regional deployments serve the
        # same tenant universe in different proportions. Every override
        # must share the base mix's name tuple (same order), because
        # tenant indices stamped on transactions index into it and
        # per-tenant metrics are aggregated deployment-wide.
        self.tenants_by_group: Dict[int, TenantMix] = {}
        if tenants_by_group:
            if tenants is None:
                raise ValueError(
                    "per-group tenant mixes need a base mix (the "
                    "deployment-wide tenant name universe)"
                )
            for gid, mix in tenants_by_group.items():
                if mix.names != tenants.names:
                    raise ValueError(
                        f"group {gid} tenant mix names {mix.names} do not "
                        f"match the base mix {tenants.names}"
                    )
            self.tenants_by_group = dict(tenants_by_group)

    # -- deployment-facing API ------------------------------------------

    def process_for(self, gid: int, rng: random.Random) -> ArrivalProcess:
        """Instantiate group ``gid``'s arrival process from its stream."""
        return self._make_process(gid, rng)

    def tenants_for(self, gid: int) -> Optional[TenantMix]:
        """Group ``gid``'s tenant mix (the base mix unless overridden)."""
        return self.tenants_by_group.get(gid, self.tenants)

    def peak_rate(self, gid: int) -> float:
        """Envelope offered rate for ``gid`` (falls back to the max)."""
        if gid in self.peak_rates:
            return self.peak_rates[gid]
        return max(self.peak_rates.values())

    def offered_load(self, gids: Sequence[int]) -> Dict[int, float]:
        """Per-group envelope rates in the shape ``GeoDeployment`` takes."""
        return {gid: self.peak_rate(gid) for gid in gids}

    def describe(self) -> dict:
        """Deterministic JSON-friendly summary for scenario artifacts."""
        doc = {
            "name": self.name,
            "peak_rates": {
                str(g): round(r, 3) for g, r in sorted(self.peak_rates.items())
            },
        }
        if self.detail:
            doc["detail"] = self.detail
        if self.tenants is not None:
            doc["tenants"] = self.tenants.describe()
        if self.tenants_by_group:
            doc["tenants_by_group"] = {
                str(gid): mix.describe()
                for gid, mix in sorted(self.tenants_by_group.items())
            }
        if self.hotspot is not None:
            doc["hotspot"] = self.hotspot.describe()
        return doc

    # -- recipes -------------------------------------------------------

    @classmethod
    def constant(
        cls,
        rate: Union[float, Mapping[int, float]],
        n_groups: int = 1,
        tenants: Optional[TenantMix] = None,
        hotspot: Optional[HotspotDrift] = None,
        tenants_by_group: Optional[Mapping[int, TenantMix]] = None,
    ) -> "TrafficSpec":
        """The trivial process: the legacy metronome, now spelled out."""
        rates = _per_group(rate, n_groups)

        def make(gid: int, rng: random.Random) -> ArrivalProcess:
            return ConstantRate(rates[gid])

        return cls(
            "constant", make, rates, tenants=tenants, hotspot=hotspot,
            detail={"process": "constant"},
            tenants_by_group=tenants_by_group,
        )

    @classmethod
    def poisson(
        cls,
        curves: Union[float, RateCurve, Mapping[int, Union[float, RateCurve]]],
        n_groups: int = 1,
        tenants: Optional[TenantMix] = None,
        hotspot: Optional[HotspotDrift] = None,
        name: str = "poisson",
        detail: Optional[dict] = None,
        tenants_by_group: Optional[Mapping[int, TenantMix]] = None,
    ) -> "TrafficSpec":
        """Poisson arrivals over a rate curve (same curve or per group)."""
        per_group = _per_group_curves(curves, n_groups)
        peaks = {gid: curve.peak for gid, curve in per_group.items()}

        def make(gid: int, rng: random.Random) -> ArrivalProcess:
            return PoissonProcess(per_group[gid], rng)

        return cls(
            name, make, peaks, tenants=tenants, hotspot=hotspot,
            detail=detail or {"process": "poisson"},
            tenants_by_group=tenants_by_group,
        )

    @classmethod
    def mmpp(
        cls,
        states: Sequence[Tuple[float, float]],
        n_groups: int = 1,
        tenants: Optional[TenantMix] = None,
        hotspot: Optional[HotspotDrift] = None,
        tenants_by_group: Optional[Mapping[int, TenantMix]] = None,
    ) -> "TrafficSpec":
        """Markov-modulated bursts, identical state machine per group
        (each group still draws from its own stream, so bursts are not
        synchronised across regions)."""
        states = tuple((float(r), float(h)) for r, h in states)
        peak = max(r for r, _ in states)
        rates = {gid: peak for gid in range(n_groups)}

        def make(gid: int, rng: random.Random) -> ArrivalProcess:
            return MMPPProcess(states, rng)

        return cls(
            "mmpp", make, rates, tenants=tenants, hotspot=hotspot,
            detail={"process": "mmpp", "states": [list(s) for s in states]},
            tenants_by_group=tenants_by_group,
        )

    @classmethod
    def flash_crowd(
        cls,
        base: float,
        spike: float,
        start: float,
        duration: float,
        n_groups: int,
        hot_groups: Sequence[int] = (0,),
        ramp: float = 0.05,
        tenants: Optional[TenantMix] = None,
        hotspot: Optional[HotspotDrift] = None,
        tenants_by_group: Optional[Mapping[int, TenantMix]] = None,
    ) -> "TrafficSpec":
        """A regional flash crowd: ``hot_groups`` spike while the rest
        idle along at ``base`` — the regionally skewed regime a
        geo-distributed protocol must absorb without starving the quiet
        regions."""
        hot = frozenset(hot_groups)
        curves: Dict[int, RateCurve] = {}
        for gid in range(n_groups):
            if gid in hot:
                curves[gid] = FlashCrowdCurve(base, spike, start, duration, ramp)
            else:
                curves[gid] = ConstantCurve(base)
        detail = {
            "process": "flash_crowd",
            "base": base,
            "spike": spike,
            "start": start,
            "duration": duration,
            "ramp": ramp,
            "hot_groups": sorted(hot),
        }
        return cls.poisson(
            curves, n_groups, tenants=tenants, hotspot=hotspot,
            name="flash_crowd", detail=detail,
            tenants_by_group=tenants_by_group,
        )


def _per_group(
    rate: Union[float, Mapping[int, float]], n_groups: int
) -> Dict[int, float]:
    if isinstance(rate, Mapping):
        return {int(g): float(r) for g, r in rate.items()}
    return {gid: float(rate) for gid in range(n_groups)}


def _per_group_curves(
    curves: Union[float, RateCurve, Mapping[int, Union[float, RateCurve]]],
    n_groups: int,
) -> Dict[int, RateCurve]:
    def as_curve(value: Union[float, RateCurve]) -> RateCurve:
        if isinstance(value, RateCurve):
            return value
        return ConstantCurve(float(value))

    if isinstance(curves, Mapping):
        return {int(g): as_curve(c) for g, c in curves.items()}
    return {gid: as_curve(curves) for gid in range(n_groups)}


__all__ = ["ProcessFactory", "TrafficSpec"]
