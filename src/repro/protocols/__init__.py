"""Protocol deployments: MassBFT and every competitor, one codebase.

Exactly like the paper's evaluation (Section VI implements Steward,
GeoBFT, ISS and Baseline "under the same codebase with MassBFT"), every
protocol here is a :class:`~repro.protocols.runtime.spec.ProtocolSpec` —
a choice of replication transport, global consensus style, and ordering
— executed by the layered stage runtime in
:mod:`repro.protocols.runtime` and assembled by its composition root,
:class:`~repro.protocols.runtime.deployment.GeoDeployment`.
"""

from repro.protocols.runtime import (
    GeoDeployment,
    GeoNode,
    GroupRuntime,
    ProtocolSpec,
)
from repro.protocols.registry import (
    baseline,
    br,
    ebr,
    geobft,
    iss,
    massbft,
    protocol_by_name,
    steward,
)

__all__ = [
    "GeoDeployment",
    "GeoNode",
    "GroupRuntime",
    "ProtocolSpec",
    "baseline",
    "br",
    "ebr",
    "geobft",
    "iss",
    "massbft",
    "protocol_by_name",
    "steward",
]
