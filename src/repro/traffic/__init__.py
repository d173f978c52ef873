"""Internet-scale traffic generation for deployments.

Composable, seeded building blocks for realistic offered load:

* :mod:`repro.traffic.arrivals` — open-loop arrival processes
  (constant, Poisson over diurnal/flash-crowd rate curves, MMPP bursts);
* :mod:`repro.traffic.tenancy` — named tenants with rate shares,
  priorities, and SLO targets;
* :mod:`repro.traffic.hotspot` — time-varying Zipf hot-keyset drift;
* :mod:`repro.traffic.spec` — :class:`TrafficSpec`, the per-group recipe
  a :class:`~repro.protocols.runtime.deployment.GeoDeployment` consumes;
* :mod:`repro.traffic.scenarios` / :mod:`repro.traffic.suite` — the
  canonical benchmark scenarios behind ``repro traffic``.

Everything is deterministic from ``(seed, scenario)``: arrival draws,
tenant attribution, and hot-set rotation come from named rng streams or
pure functions of simulated time, so artifacts byte-reproduce.
"""

from repro.traffic.arrivals import (
    ArrivalProcess,
    ConstantCurve,
    ConstantRate,
    DiurnalCurve,
    FlashCrowdCurve,
    MMPPProcess,
    PoissonProcess,
    RateCurve,
)
from repro.traffic.hotspot import HotspotDrift
from repro.traffic.spec import TrafficSpec
from repro.traffic.tenancy import Tenant, TenantMix, gold_silver_bronze

__all__ = [
    "ArrivalProcess",
    "ConstantCurve",
    "ConstantRate",
    "DiurnalCurve",
    "FlashCrowdCurve",
    "HotspotDrift",
    "MMPPProcess",
    "PoissonProcess",
    "RateCurve",
    "Tenant",
    "TenantMix",
    "TrafficSpec",
    "gold_silver_bronze",
]
