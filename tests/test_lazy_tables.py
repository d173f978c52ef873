"""Lazy initial tables against the eager ones.

A store holds only the keys that executions wrote, and a key no
transaction wrote reads as its workload's initial value. Every test here
runs the same transactions against an empty store and against one loaded
with the eager initial tables (:mod:`tests.eager_population`), and
requires the same results, the same write counters, every lazy key equal
to its eager value and every eager-only key equal to its initial value.
"""

from __future__ import annotations

import pathlib
import random
import runpy

import pytest

from repro.ledger import transactions
from repro.ledger.execution import AriaExecutor, ExecutionPipeline
from repro.ledger.state import KVStore
from repro.protocols import GeoDeployment, protocol_by_name
from repro.topology import nationwide_cluster
from repro.workloads import SmallBankWorkload, TpccWorkload, make_workload
from repro.workloads.ycsb import YcsbWorkload
from tests.conftest import tiny_cluster
from tests.eager_population import assert_lazy_matches_eager, populate
from tests.test_tx_batches import record_executed

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Small tables, so the hot keys repeat within and across entries and
#: some keys fall outside the eager tables; one paper-sized YCSB table.
WORKLOADS = {
    "ycsb-a": lambda: YcsbWorkload(read_fraction=0.5, n_rows=20_000),
    "ycsb-b": lambda: YcsbWorkload(read_fraction=0.95, n_rows=20_000),
    "ycsb-a-1m": lambda: YcsbWorkload(read_fraction=0.5),
    "smallbank": lambda: SmallBankWorkload(n_accounts=12_000),
    "tpcc": lambda: TpccWorkload(n_warehouses=4),
}


def _pipeline(workload, store: KVStore) -> ExecutionPipeline:
    executor = AriaExecutor(store)
    workload.register(executor)
    return ExecutionPipeline(executor)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_on_an_empty_store_matches_the_eager_tables(name, seed):
    workload = WORKLOADS[name]()
    lazy, eager = KVStore(), KVStore()
    populate(workload, eager)
    pipelines = _pipeline(workload, lazy), _pipeline(workload, eager)
    gen = workload.batch_generator_for(random.Random(seed))
    clock = iter(i * 0.0005 for i in range(100_000))
    aborted = 0
    for size in [400, 400, 0, 1, 250, 400, 60]:
        batch = gen([next(clock) for _ in range(size)])
        results = [pipe.execute_entry(batch) for pipe in pipelines]
        assert results[0] == results[1]
        aborted += results[0].aborted
    assert lazy.writes_applied > 0
    assert_lazy_matches_eager(lazy, eager)
    if name == "tpcc":
        assert aborted > 0  # the carried lane ran too


def _real_full_run(monkeypatch, eager: bool):
    # Transaction ids are part of the payload bytes and come from one
    # process-wide sequence: start each run where a fresh process does.
    monkeypatch.setattr(transactions, "_next_tx_id", 1)
    deployment = GeoDeployment(
        nationwide_cluster(7),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        offered_load=30_000.0,
        seed=0,
        coding="real",
        execution="full",
    )
    observers = sorted(
        (node for node in deployment.nodes.values() if node.is_observer),
        key=lambda node: node.addr,
    )
    if eager:
        for node in observers:
            populate(deployment.workload, node.pipeline.store)
    executed, _ = record_executed(deployment)
    metrics = deployment.run(duration=1.0, warmup=0.25)
    stores = [node.pipeline.store for node in observers]
    return executed.hexdigest(), metrics.committed, stores


def test_real_full_deployment_matches_the_eager_tables(monkeypatch):
    """The ``real_payload`` shape (nationwide 3x7, YCSB-A, 30 ktps, real
    coding, full execution, seed 0) for one simulated second."""
    digest, committed, lazy_stores = _real_full_run(monkeypatch, eager=False)
    eager_digest, eager_committed, eager_stores = _real_full_run(
        monkeypatch, eager=True
    )
    assert (digest, committed) == (eager_digest, eager_committed)
    assert committed > 30_000
    for lazy, eager in zip(lazy_stores, eager_stores):
        assert_lazy_matches_eager(lazy, eager)
        assert len(lazy) < len(eager) // 4


@pytest.mark.parametrize("name", ["ycsb-a", "smallbank", "tpcc"])
@pytest.mark.parametrize("observers", ["leaders", "all"])
def test_observer_stores_start_empty(name, observers):
    deployment = GeoDeployment(
        tiny_cluster((4, 4, 4)),
        protocol_by_name("massbft"),
        make_workload(name),
        execution="full",
        observers=observers,
    )
    stores = [
        node.pipeline.store
        for node in deployment.nodes.values()
        if node.is_observer
    ]
    assert stores and all(len(store) == 0 for store in stores)


def test_geo_banking_audits_every_account(monkeypatch, capsys):
    """The example's SmallBank run, end to end: the funds it prints are
    those it printed when every account was loaded up front."""
    monkeypatch.setattr(transactions, "_next_tx_id", 1)
    runpy.run_path(str(EXAMPLES / "geo_banking.py"))["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert "Initial funds: 30,000,000" in lines
    assert "Final funds  : 30,061,779" in lines
