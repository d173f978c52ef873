"""The layered protocol runtime: explicit stages wired by a composition root.

Module map (see DESIGN.md for the full tour):

==================  ====================================================
``events``          typed event bus + metrics bridge
``spec``            :class:`ProtocolSpec`, the one stage selector
``load``            open-loop client load, batching, admission control
``local``           per-group PBFT and certified-value dispatch
``dissemination``   transport selection + entry availability hub
``global_phase``    :class:`GlobalPhase` interface; Raft / direct
                    broadcast (GeoBFT) / serial slots (Steward)
``values``          accept/commit values certified by local PBFT
``slots``           Steward's shared :class:`SlotToken`
``takeover``        crashed-group takeover for the Raft phase
``ordering_exec``   observers and their orderers (defined in
                    :mod:`repro.core.ordering`), Aria execution,
                    measurement observer
``faults``          crash / Byzantine / bandwidth injection
``group``           per-group stage composition (:class:`GroupRuntime`)
``node``            the replica node (:class:`GeoNode`)
``deployment``      the composition root (:class:`GeoDeployment`)
==================  ====================================================
"""

from repro.protocols.runtime.deployment import GeoDeployment
from repro.protocols.runtime.dissemination import DisseminationStage, build_transport
from repro.protocols.runtime.events import (
    EntryAvailableRemote,
    EntryBatched,
    EntryExecuted,
    EntryGloballyCommitted,
    EntryLocallyCommitted,
    EventBus,
    MetricsBridge,
    ProposalGated,
    QueueDepthsSampled,
)
from repro.protocols.runtime.faults import FaultInjector
from repro.protocols.runtime.global_phase import (
    DirectBroadcastPhase,
    GlobalPhase,
    RaftGlobalPhase,
    SerialSlotPhase,
)
from repro.protocols.runtime.group import GroupRuntime
from repro.protocols.runtime.load import ClientLoad, LoadStage
from repro.protocols.runtime.local import LocalConsensusStage
from repro.protocols.runtime.node import GeoNode
from repro.protocols.runtime.ordering_exec import OrderingExecStage
from repro.protocols.runtime.slots import SlotToken
from repro.protocols.runtime.spec import ProtocolSpec
from repro.protocols.runtime.values import AcceptValue, CommitValue

__all__ = [
    "AcceptValue",
    "ClientLoad",
    "CommitValue",
    "DirectBroadcastPhase",
    "DisseminationStage",
    "EntryAvailableRemote",
    "EntryBatched",
    "EntryExecuted",
    "EntryGloballyCommitted",
    "EntryLocallyCommitted",
    "EventBus",
    "FaultInjector",
    "GeoDeployment",
    "GeoNode",
    "GlobalPhase",
    "GroupRuntime",
    "LoadStage",
    "LocalConsensusStage",
    "MetricsBridge",
    "OrderingExecStage",
    "ProposalGated",
    "ProtocolSpec",
    "QueueDepthsSampled",
    "RaftGlobalPhase",
    "SerialSlotPhase",
    "SlotToken",
    "build_transport",
]
