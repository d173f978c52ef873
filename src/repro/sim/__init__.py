"""Discrete-event simulation substrate.

This package provides the simulated "testbed" on which every protocol in
this repository runs: an event loop (:mod:`repro.sim.core`), a network model
with per-NIC bandwidth queues and a WAN/LAN latency matrix
(:mod:`repro.sim.network`), a node runtime with timers and crash/Byzantine
switches (:mod:`repro.sim.node`), deterministic named RNG streams
(:mod:`repro.sim.rng`), and measurement helpers (:mod:`repro.sim.monitor`).

The paper deploys on two Aliyun clusters; this simulator replaces that
hardware while preserving the properties the evaluation depends on:
per-node upstream WAN bandwidth limits, LAN/WAN latency asymmetry, message
loss, and whole-datacenter failures.
"""

from repro.sim.core import SimulationBudgetExceeded, Simulator, Timer
from repro.sim.events import Event, EventQueue
from repro.sim.monitor import Counter, Histogram, StatMonitor, TimeSeries
from repro.sim.network import (
    LinkQuality,
    Message,
    Network,
    ResourceQueue,
    NodeAddress,
)
from repro.sim.node import SimNode
from repro.sim.rng import RngRegistry

__all__ = [
    "Counter",
    "Event",
    "EventQueue",
    "Histogram",
    "LinkQuality",
    "Message",
    "Network",
    "ResourceQueue",
    "NodeAddress",
    "RngRegistry",
    "SimNode",
    "SimulationBudgetExceeded",
    "Simulator",
    "StatMonitor",
    "TimeSeries",
    "Timer",
]
