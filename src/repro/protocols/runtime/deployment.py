"""The composition root: build a deployment by wiring stages together.

One :class:`GeoDeployment` assembles a complete simulated system from a
cluster topology and a :class:`~repro.protocols.runtime.spec.ProtocolSpec`:

* per-group client load (:mod:`~repro.protocols.runtime.load`, open-loop
  arrivals batched on the paper's 20 ms batch timer);
* local PBFT consensus per group (:mod:`~repro.protocols.runtime.local`);
* a replication transport (:mod:`~repro.protocols.runtime.dissemination`);
* a global consensus phase — Raft propose/accept/commit, direct
  broadcast, or serialised slots
  (:mod:`~repro.protocols.runtime.global_phase`);
* ordering and Aria execution at observers
  (:mod:`~repro.protocols.runtime.ordering_exec`);
* failure injection (:mod:`~repro.protocols.runtime.faults`).

Stages communicate through the typed event bus
(:mod:`~repro.protocols.runtime.events`), which also feeds
:class:`repro.bench.metrics.RunMetrics`.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Optional

from repro.bench.metrics import RunMetrics
from repro.core.entry import EntryId, LogEntry
from repro.core.membership import MembershipLog
from repro.costs import CostModel
from repro.crypto.keystore import KeyStore
from repro.protocols.runtime.dissemination import DisseminationStage, build_transport
from repro.protocols.runtime.events import EventBus, MetricsBridge
from repro.protocols.runtime.faults import FaultInjector
from repro.protocols.runtime.global_phase import (
    DirectBroadcastPhase,
    GlobalPhase,
    RaftGlobalPhase,
    SerialSlotPhase,
    SlotToken,
)
from repro.protocols.runtime.group import GroupRuntime
from repro.protocols.runtime.load import BATCH_TIMEOUT, ClientLoad
from repro.protocols.runtime.node import GeoNode
from repro.protocols.runtime.ordering_exec import OrderingExecStage
from repro.protocols.runtime.spec import ProtocolSpec
from repro.sim.core import Simulator
from repro.sim.network import Network, NodeAddress
from repro.sim.rng import RngRegistry
from repro.topology.cluster import ClusterConfig
from repro.workloads.base import Workload


class GeoDeployment:
    """Builds and drives one simulated deployment of a protocol.

    Typical benchmark usage::

        deployment = GeoDeployment(cluster, massbft(), workload,
                                   offered_load=30_000)
        metrics = deployment.run(duration=2.0, warmup=0.5)
        print(metrics.throughput, metrics.mean_latency)
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        spec: ProtocolSpec,
        workload: Workload,
        offered_load: float = 30_000.0,
        coding: str = "simulated",
        execution: str = "modeled",
        observers: str = "leaders",
        seed: int = 0,
        takeover_timeout: float = 1.0,
        traffic: Optional[Any] = None,
        control: Optional[str] = None,
    ) -> None:
        """``offered_load`` is client transactions/second *per group*.

        Batching, admission and CPU costs are the paper's one operating
        point: constants in :mod:`~repro.protocols.runtime.load` and the
        default :class:`~repro.costs.CostModel`. Another value for one
        group is set on its ``load_stage`` before :meth:`run`, which is
        where the controller actuates it mid-run.

        ``traffic`` is an optional :class:`repro.traffic.TrafficSpec`.
        When given, each group's arrivals come from the spec's process
        instead of the constant metronome, and tenant
        attribution/per-tenant metrics are enabled when the spec carries
        a tenant mix. ``offered_load`` stays the envelope rate used for
        batch sizing (pass ``traffic.offered_load(...)``).
        When ``traffic`` is ``None`` nothing changes: the runtime never
        imports :mod:`repro.traffic` and runs stay byte-identical.

        ``control`` names the closed-loop adaptive controller's policy
        (:mod:`repro.control`: ``"static"``, ``"aimd"``, ``"target"``).
        ``None`` (the default) never imports :mod:`repro.control` and
        runs stay byte-identical (zero-cost-off).

        Every stage is chosen by ``spec``'s validated strings; there is
        no other way to swap one."""
        if coding not in ("real", "simulated"):
            raise ValueError(f"unknown coding mode {coding!r}")
        if execution not in ("full", "modeled"):
            raise ValueError(f"unknown execution mode {execution!r}")
        if observers not in ("leaders", "all"):
            raise ValueError("observers must be 'leaders' or 'all'")
        self.cluster = cluster
        self.spec = spec
        self.workload = workload
        self.traffic = traffic
        self.tenant_names = None
        if traffic is not None and traffic.tenants is not None:
            self.tenant_names = traffic.tenants.names
        if isinstance(offered_load, dict):
            self.offered_load = dict(offered_load)
        else:
            self.offered_load = {
                g.gid: float(offered_load) for g in cluster.groups
            }
        # One batch holds at most a batch-timeout's worth of arrivals
        # (the paper fixes the batch timeout at 20 ms).
        self.max_batch_txns = max(
            1, int(max(self.offered_load.values()) * BATCH_TIMEOUT)
        )
        self.coding = coding
        self.execution = execution
        self.costs = CostModel()
        self.seed = seed
        self.takeover_timeout = takeover_timeout
        self.materialize_payloads = coding == "real" or execution == "full"
        #: Deployment-wide actuation epoch, bumped by the control stage on
        #: every knob change (0 forever when no controller is attached).
        #: Mirrors the membership-epoch invalidation machinery so cached
        #: state keyed on it is refreshed after an actuation.
        self.control_epoch = 0

        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            rtt_matrix=cluster.rtt_matrix,
            lan_bandwidth=cluster.lan_bandwidth,
            wan_bandwidth=cluster.wan_bandwidth,
            lan_latency=cluster.lan_latency,
            rng=self.rng,
        )
        self.keystore = KeyStore(seed=seed)
        self.n_groups = cluster.n_groups
        self.f_g = cluster.f_g
        self.entries: Dict[EntryId, LogEntry] = {}

        # Event bus + metrics (the bridge is just another subscriber).
        self.bus = EventBus()
        self.metrics = RunMetrics(self.n_groups)
        if self.tenant_names is not None:
            self.metrics.configure_tenants(traffic.tenants)
        MetricsBridge(self.bus, self.metrics)

        # Steward's deployment-wide slot token, shared by all groups.
        self._slot_token = (
            SlotToken(self) if spec.global_consensus == "serial" else None
        )

        # Build nodes and groups.
        self.nodes: Dict[NodeAddress, GeoNode] = {}
        self.groups: Dict[int, GroupRuntime] = {}
        for group_cfg in cluster.groups:
            members: List[GeoNode] = []
            for index in range(group_cfg.n_nodes):
                addr = NodeAddress.of(group_cfg.gid, index)
                node = GeoNode(
                    self.sim,
                    self.network,
                    addr,
                    self,
                    wan_bandwidth=group_cfg.bandwidth_of(
                        index, cluster.wan_bandwidth
                    ),
                )
                node.cpu.rate = self.costs.cpu_cores
                self.nodes[addr] = node
                members.append(node)
            gid = group_cfg.gid
            if traffic is None:
                load = ClientLoad(
                    workload,
                    rate=self.offered_load[gid],
                    rng=self.rng.stream(f"load.g{gid}"),
                )
            else:
                # Dedicated streams per concern: arrival timing and
                # tenant attribution never perturb the workload's
                # own draw sequence (stream names are independent).
                # Specs may carry per-group tenant mixes (regional
                # asymmetry); the name universe is validated to match
                # the base mix so tenant indices stay aligned.
                tenants = traffic.tenants_for(gid)
                load = ClientLoad(
                    workload,
                    rate=self.offered_load[gid],
                    rng=self.rng.stream(f"load.g{gid}"),
                    process=traffic.process_for(
                        gid, self.rng.stream(f"traffic.arrivals.g{gid}")
                    ),
                    tenants=tenants,
                    tenant_rng=(
                        self.rng.stream(f"traffic.tenants.g{gid}")
                        if tenants is not None
                        else None
                    ),
                )
            self.groups[group_cfg.gid] = GroupRuntime(
                self, group_cfg.gid, members, load
            )

        # Wire global message handlers (all nodes; reps act on them).
        for node in self.nodes.values():
            self.groups[node.gid].global_phase.register_handlers(node)

        # Transport + dissemination.
        members_by_gid = {g: list(rt.members) for g, rt in self.groups.items()}
        deliver = lambda node, entry_id: node.on_entry_available(entry_id)
        get_entry = lambda entry_id: self.entries[entry_id]
        self.transport = build_transport(
            spec, members_by_gid, deliver, get_entry, self.costs, coding
        )
        self.dissemination = DisseminationStage(self, self.transport)

        # Observers: ordering + execution + measurement.
        self.ordering_exec = OrderingExecStage(self)
        self.ordering_exec.setup_observers(observers)

        # Failure injection.
        self.faults = FaultInjector(self)

        # Membership epochs + runtime reconfiguration. The log is pure
        # bookkeeping (no RNG, no timers), so building it always keeps
        # unchurned runs bit-identical.
        self.membership = MembershipLog()
        for gid, group in self.groups.items():
            self.membership.genesis(
                gid, [m.addr for m in group.members], group.pbft.leader.addr
            )
        from repro.protocols.runtime.reconfig import ReconfigStage

        self.reconfig = ReconfigStage(self)

        # Timers: batching, then each phase's periodic work. Batch-timer
        # handles are kept: the control stage retunes a group's batching
        # cadence by mutating its timer interval (next-tick effect).
        self.batch_timers: Dict[int, Any] = {}
        for gid, group in self.groups.items():
            offset = (gid + 1) * 1e-4  # desynchronise group timers slightly
            self.batch_timers[gid] = self.sim.set_timer(
                BATCH_TIMEOUT + offset,
                group.load_stage.on_batch_timer,
                interval=BATCH_TIMEOUT,
            )
            group.global_phase.install_timers(offset)

        # Closed-loop adaptive control (imported lazily: with no
        # controller requested the runtime never touches repro.control
        # and stays byte-identical to a controller-free build).
        self.control = None
        if control is not None:
            from repro.control import ControlStage, policy_by_name

            self.control = ControlStage(self, policy_by_name(control))

    # ------------------------------------------------------------------
    # Stage selection
    # ------------------------------------------------------------------

    def make_global_phase(self, group: GroupRuntime) -> GlobalPhase:
        """Instantiate the spec's global phase for one group."""
        if self.spec.global_consensus == "none":
            return DirectBroadcastPhase(group)
        if self.spec.global_consensus == "serial":
            return SerialSlotPhase(group, self._slot_token)
        return RaftGlobalPhase(group)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def other_groups(self, gid: int) -> List[int]:
        return [g for g in range(self.n_groups) if g != gid]

    def observer_of(self, gid: int) -> GeoNode:
        return self.groups[gid].members[0]

    def attach_tracer(self, **options):
        """Attach a full :class:`repro.obs.Tracer` (spans + telemetry).

        Imported lazily: untraced runs never touch the observability
        subsystem. Must be called before :meth:`run`.
        """
        from repro.obs import Tracer

        return Tracer.attach(self, **options)

    # ------------------------------------------------------------------
    # Failure injection (delegates to the faults stage)
    # ------------------------------------------------------------------

    def crash_group_at(self, gid: int, at: float) -> None:
        self.faults.crash_group_at(gid, at)

    def make_byzantine_at(
        self,
        gid: int,
        count: int,
        at: float,
        indices: Optional[List[int]] = None,
    ) -> None:
        self.faults.make_byzantine_at(gid, count, at, indices)

    def set_node_bandwidth_at(
        self, addr: NodeAddress, bandwidth: float, at: float
    ) -> None:
        self.faults.set_node_bandwidth_at(addr, bandwidth, at)

    def crash_node_at(self, gid: int, index: int, at: float) -> None:
        self.faults.crash_node_at(gid, index, at)

    def partition_group_at(self, gid: int, at: float, until: float) -> None:
        self.faults.partition_group_at(gid, at, until)

    # ------------------------------------------------------------------
    # Reconfiguration (delegates to the reconfig stage)
    # ------------------------------------------------------------------

    def join_node_at(self, gid: int, at: float) -> None:
        self.reconfig.join_node_at(gid, at)

    def leave_node_at(self, gid: int, index: int, at: float) -> None:
        self.reconfig.leave_node_at(gid, index, at)

    def resize_group_at(self, gid: int, target: int, at: float) -> None:
        self.reconfig.resize_group_at(gid, target, at)

    def move_leader_at(
        self, gid: int, at: float, to_index: Optional[int] = None
    ) -> None:
        self.reconfig.move_leader_at(gid, at, to_index)

    def degrade_region_at(
        self, gid: int, at: float, until: float, bandwidth: float
    ) -> None:
        self.reconfig.degrade_region_at(gid, at, until, bandwidth)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self, duration: float, warmup: float = 0.0) -> RunMetrics:
        """Advance the simulation ``duration`` seconds and report.

        ``warmup`` seconds at the start are excluded from all metrics
        (traffic counters are reset at the warmup boundary too).

        The cyclic garbage collector is paused for the duration of the
        event loop: a saturated run allocates hundreds of thousands of
        short-lived acyclic objects (transactions, messages, events,
        heap tuples) that reference counting reclaims immediately, so
        collector passes only rescan the live graph — about a quarter of
        wall-clock time on the fig08 point. Cyclic stragglers (e.g. the
        Timer/Event loop) are picked up once collection resumes.
        """
        if warmup >= duration:
            raise ValueError("warmup must be shorter than the run")
        self.metrics.warmup = warmup
        if warmup > 0:
            self.sim.schedule_at(warmup, self.network.reset_traffic_accounting)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.sim.run(until=duration)
        finally:
            if gc_was_enabled:
                gc.enable()
        self.metrics.end_time = duration
        return self.metrics
