"""Multi-tenant traffic: named tenants, rate shares, priorities, SLOs.

A :class:`TenantMix` splits one group's arrival stream across named
tenants. Each arrival is attributed to a tenant by a seeded draw over
the rate shares (a thinned Poisson stream per tenant, without running N
separate processes), and the tenant index is stamped onto the
transaction so admission/shed decisions and per-tenant latency
percentiles stay attributable end to end.

Priorities feed the load stage's shed policy: when the admission queue
overflows or the batch cap binds, low-priority tenants are shed first.
SLO targets are carried through to the metrics layer so reports can
grade each tenant's p99 against its own target rather than a global one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class Tenant:
    """One tenant's contract: share of offered load, priority, SLO.

    ``share`` values are normalised across the mix; ``priority`` is
    higher-is-better (admitted first, shed last); ``slo_p99_s`` is the
    tenant's target 99th-percentile end-to-end latency in seconds.
    """

    name: str
    share: float
    priority: int = 1
    slo_p99_s: float = 0.5

    def __post_init__(self) -> None:
        if self.share <= 0:
            raise ValueError(f"tenant {self.name!r} needs a positive share")
        if self.priority < 0:
            raise ValueError(f"tenant {self.name!r} needs priority >= 0")


class TenantMix:
    """A fixed set of tenants splitting one arrival stream."""

    def __init__(self, tenants: Sequence[Tenant]) -> None:
        tenants = tuple(tenants)
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.tenants: Tuple[Tenant, ...] = tenants
        self.names: Tuple[str, ...] = tuple(names)
        self.priorities: Tuple[int, ...] = tuple(t.priority for t in tenants)
        total = sum(t.share for t in tenants)
        # Cumulative normalised shares for bisect-based attribution.
        self._cum: List[float] = []
        acc = 0.0
        for t in tenants:
            acc += t.share / total
            self._cum.append(acc)
        self._cum[-1] = 1.0  # guard against float shortfall

    def pick(self, rng) -> int:
        """Attribute one arrival to a tenant index (seeded draw).

        Splitting a Poisson stream by independent coin flips yields
        independent Poisson streams per tenant at ``share * rate``, so
        this is exact for Poisson parents and a faithful share split for
        the others.
        """
        return bisect.bisect_left(self._cum, rng.random())

    def __len__(self) -> int:
        return len(self.tenants)

    def describe(self) -> List[dict]:
        """Deterministic JSON-friendly summary for scenario artifacts."""
        return [
            {
                "name": t.name,
                "share": round(t.share, 6),
                "priority": t.priority,
                "slo_p99_s": t.slo_p99_s,
            }
            for t in self.tenants
        ]


#: p99 latency SLOs (seconds) of the canonical mix's three classes.
SLO_GOLD = 0.25
SLO_SILVER = 0.5
SLO_BRONZE = 1.0


def gold_silver_bronze() -> TenantMix:
    """The canonical three-class mix used by the scenario suite."""
    return TenantMix(
        [
            Tenant("gold", share=0.2, priority=3, slo_p99_s=SLO_GOLD),
            Tenant("silver", share=0.3, priority=2, slo_p99_s=SLO_SILVER),
            Tenant("bronze", share=0.5, priority=1, slo_p99_s=SLO_BRONZE),
        ]
    )


__all__ = ["Tenant", "TenantMix", "gold_silver_bronze"]
