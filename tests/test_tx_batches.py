"""Columnar transaction batches and shared conflict plans.

The batch generator must be the ``generate()`` stream in another shape,
the conflict plan must be the per-transaction Aria executor
(:mod:`tests.aria_reference`) computed once, a YCSB batch's payload bytes
and full execution must be its transactions' without the objects, and a
YCSB run — modeled or real-coded and fully executed — must get from
arrival to commit without building a ``Transaction``.
"""

import hashlib
import random
import sys
from array import array

import pytest

from repro.ledger import execution, transactions
from repro.ledger.execution import AriaExecutor, ExecutionPipeline
from repro.ledger.state import KVStore
from repro.ledger.transactions import Transaction, TxBatch, serialize_batch
from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime.events import EntryExecuted
from repro.protocols.runtime.load import ClientLoad
from repro.topology import nationwide_cluster
from repro.traffic import HotspotDrift, TrafficSpec, gold_silver_bronze
from repro.workloads import make_workload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import (
    COLUMN_BYTES,
    YcsbBatch,
    YcsbWorkload,
    initial_column,
)
from tests.aria_reference import FullReferencePipeline, ReferencePipeline
from tests.conftest import tiny_cluster


def fields(tx):
    return (
        tx.kind,
        tx.read_keys,
        tx.write_keys,
        tx.params,
        tx.payload_bytes,
        tx.size_bytes,
        tx.created_at,
    )


def ycsb(read_fraction=0.5, drift=None, n_rows=10_000):
    return YcsbWorkload(read_fraction=read_fraction, n_rows=n_rows, hotspot=drift)


#: 700 due times across several drift rotations (0.5 s each).
DUE = [i * 0.003 for i in range(700)]


# ----------------------------------------------------------------------
# Generation: the batch generator is the generate() stream
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("read_fraction", [0.5, 0.95])
@pytest.mark.parametrize("drift", [None, HotspotDrift(0.5, 997)])
class TestYcsbBatchGeneration:
    def test_materialised_batch_equals_generate_stream(
        self, seed, read_fraction, drift
    ):
        rng_batch, rng_stream = random.Random(seed), random.Random(seed)
        batch = ycsb(read_fraction, drift).batch_generator_for(rng_batch)(DUE)
        workload = ycsb(read_fraction, drift)
        stream = [workload.generate(rng_stream, now=now) for now in DUE]

        assert isinstance(batch, YcsbBatch) and batch._txns is None
        assert [fields(tx) for tx in batch.transactions] == [
            fields(tx) for tx in stream
        ]
        assert rng_batch.getstate() == rng_stream.getstate()
        updates = [tx for tx in batch if tx.kind == "ycsb_update"]
        assert updates and all(
            len(tx.params["value"]) == COLUMN_BYTES for tx in updates
        )

    def test_columns_describe_the_same_transactions(
        self, seed, read_fraction, drift
    ):
        batch = ycsb(read_fraction, drift).batch_generator_for(random.Random(seed))(
            DUE
        )
        size, (reads, writes) = batch.size_bytes, batch.key_sets()
        assert batch._txns is None  # none of that built an object
        txns = batch.transactions
        assert batch.due == [tx.created_at for tx in txns]
        assert list(batch.tx_ids()) == [tx.tx_id for tx in txns]
        assert size == sum(tx.size_bytes for tx in txns)
        name = batch.key_name
        assert [tuple(map(name, keys)) for keys in reads] == [
            tx.read_keys for tx in txns
        ]
        assert [tuple(map(name, keys)) for keys in writes] == [
            tx.write_keys for tx in txns
        ]

    @pytest.mark.parametrize("size", [0, 1, 7, 700])
    def test_payload_bytes_are_the_transactions_serialised(
        self, seed, read_fraction, drift, size
    ):
        gen = ycsb(read_fraction, drift).batch_generator_for(random.Random(seed))
        batch = gen(DUE[:size])
        payload = batch.serialize()
        assert batch._txns is None and type(payload) is bytes
        assert payload == serialize_batch(batch.transactions)
        assert payload == TxBatch(batch.transactions).serialize()
        assert len(payload) == batch.size_bytes + 4 * size

    @pytest.mark.parametrize("chunk", [1, 7, 500])
    def test_chunked_batches_equal_one_big_batch(
        self, seed, read_fraction, drift, chunk
    ):
        rng_big, rng_chunked = random.Random(seed), random.Random(seed)
        big = ycsb(read_fraction, drift).batch_generator_for(rng_big)(DUE)
        gen = ycsb(read_fraction, drift).batch_generator_for(rng_chunked)
        chunks = [gen(DUE[i : i + chunk]) for i in range(0, len(DUE), chunk)]
        assert [fields(tx) for part in chunks for tx in part] == [
            fields(tx) for tx in big
        ]
        assert rng_big.getstate() == rng_chunked.getstate()


def test_reserved_ids_are_contiguous_and_never_reused_across_groups():
    workload = ycsb()
    groups = [workload.batch_generator_for(random.Random(g)) for g in range(3)]
    bank = SmallBankWorkload(n_accounts=50).batch_generator_for(random.Random(9))
    seen = []
    for round_no in range(4):
        for g, gen in enumerate(groups):
            batch = gen([0.1 * round_no] * (5 + 3 * g + round_no))
            ids = list(batch.tx_ids())
            assert ids == list(range(ids[0], ids[0] + len(batch)))
            assert [tx.tx_id for tx in batch] == ids
            seen.extend(ids)
        seen.extend(bank([0.1 * round_no] * 4).tx_ids())
        seen.append(workload.generate(random.Random(round_no)).tx_id)
        seen.append(Transaction(kind="t", read_keys=(), write_keys=()).tx_id)
    assert len(seen) == len(set(seen))


def test_default_batch_generator_wraps_the_generate_stream():
    for name in ("smallbank", "tpcc"):
        rng_batch, rng_stream = random.Random(5), random.Random(5)
        batch = make_workload(name).batch_generator_for(rng_batch)(DUE[:60])
        workload = make_workload(name)
        stream = [workload.generate(rng_stream, now=now) for now in DUE[:60]]
        assert type(batch) is TxBatch
        assert [fields(tx) for tx in batch] == [fields(tx) for tx in stream]
        assert rng_batch.getstate() == rng_stream.getstate()


# ----------------------------------------------------------------------
# Conflict plan == the plain per-transaction executor
# ----------------------------------------------------------------------


@pytest.fixture
def transactions_built(monkeypatch):
    built = []
    init = Transaction.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transaction, "__init__", counting)
    return built


def tx(now, reads=(), writes=()):
    return Transaction(
        kind="t", read_keys=tuple(reads), write_keys=tuple(writes), created_at=now
    )


def hand_built_entries():
    """WAW, RAW, blind writes, duplicate keys, empty and carry-only."""
    times = iter(i * 0.001 for i in range(1000))
    t = lambda reads=(), writes=(): tx(next(times), reads, writes)  # noqa: E731
    return [
        [t(("hot",), ("hot",)) for _ in range(4)],  # WAW: first writer wins
        [],  # empty entry: only the carried three commit
        [t((), ("k",)), t(("k",)), t(("j",)), t((), ("j",))],  # RAW / read-first
        [t((), ("b",)), t((), ("b",)), t((), ("b", "c"))],  # blind writers
        [t(("d", "d"), ("d", "d")), t(("d",), ("e", "e", "d"))],  # duplicate keys
        [t((), ("a",)), t(("a",), ("b",)), t(("b",)), t(("z",), ("a",))],  # chain
        [t(("k",), ("k",))],  # nothing carried in, nothing aborted
        [],
    ]


def random_entries(name, seed):
    """Seeded contended entries; YCSB ones are columnar."""
    rng = random.Random(seed)
    if name == "ycsb":
        workload = ycsb(n_rows=40)
    elif name == "smallbank":
        workload = SmallBankWorkload(n_accounts=25)
    else:
        workload = TpccWorkload(n_warehouses=2)
    gen = workload.batch_generator_for(rng)
    clock = iter(i * 0.0005 for i in range(100_000))
    return [
        gen([next(clock) for _ in range(rng.choice((0, 1, 30, 120)))])
        for _ in range(12)
    ]


def assert_pipeline_matches_reference(entries):
    pipe, ref = ExecutionPipeline(), ReferencePipeline()
    aborts = 0
    for entry in entries:
        batch = entry if isinstance(entry, TxBatch) else TxBatch(entry)
        columnar = batch._txns is None
        result = pipe.execute_entry(batch)
        if columnar:
            assert batch._txns is None  # the plan never needed the objects
        committed, aborted = ref.execute_entry(batch.transactions)
        # Due times are unique and increasing, so equal times = equal order.
        assert result.commit_times == tuple(tx.created_at for tx in committed)
        assert result.aborted == len(aborted)
        ids = batch.tx_ids()
        assert [ids[i] for i in batch.plan.aborted] == [tx.tx_id for tx in aborted]
        assert pipe.carryover == aborted
        assert dict(pipe.store.scan_prefix("")) == ref.store
        aborts += len(aborted)
    assert pipe.executor.total_committed == ref.total_committed
    assert pipe.executor.total_aborted == ref.total_aborted == aborts
    return aborts


class TestConflictPlanEquivalence:
    def test_hand_built_cases(self):
        assert assert_pipeline_matches_reference(hand_built_entries()) == 3 + 1 + 1 + 3

    def test_each_hand_built_case_without_carry_over(self):
        for entry in hand_built_entries():
            assert_pipeline_matches_reference([entry])

    @pytest.mark.parametrize("name", ["ycsb", "smallbank", "tpcc"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seeded_random_entries(self, name, seed):
        entries = random_entries(name, seed)
        assert assert_pipeline_matches_reference(entries) > 0  # contended
        for entry in random_entries(name, seed):  # and one by one, no carry
            assert_pipeline_matches_reference([entry])

    @pytest.mark.parametrize("name", ["ycsb", "smallbank", "tpcc"])
    def test_public_execute_batch_matches_reference(self, name):
        for entry in random_entries(name, 4):
            txns = list(entry.transactions)
            result = AriaExecutor().execute_batch(txns)
            committed, aborted = ReferencePipeline().execute_entry(txns)
            assert result.committed == committed and result.aborted == aborted

    @pytest.mark.parametrize("name", ["smallbank", "tpcc"])
    def test_logic_and_modeled_executors_abort_the_same_transactions(self, name):
        # Logic that writes exactly the declared keys: the store-dependent
        # path must decide like the shared plan.
        declared = lambda store, tx: dict.fromkeys(tx.write_keys, 1)  # noqa: E731
        for entry in random_entries(name, 5):
            kinds = {tx.kind for tx in entry}
            with_logic = AriaExecutor(logic={kind: declared for kind in kinds})
            assert (
                with_logic.execute_batch(entry).aborted
                == AriaExecutor().execute_batch(entry).aborted
            )
            assert entry.plan is not None  # only the modeled run cached it


# ----------------------------------------------------------------------
# Full execution from the columns == the per-transaction executor
# ----------------------------------------------------------------------


def plain_ycsb_logic():
    """YCSB's execution logic as the parent commit wrote it, working from
    ``tx.params`` alone: the reference for the stock logic."""

    def read(store, tx):
        key, column = tx.params["key"], tx.params["column"]
        store.get(YcsbWorkload.column_key(key, column), initial_column(key, column))
        return {}

    def update(store, tx):
        key, column = tx.params["key"], tx.params["column"]
        return {YcsbWorkload.column_key(key, column): tx.params["value"]}

    return {"ycsb_read": read, "ycsb_update": update}


def store_state(store):
    return sorted(store.scan_prefix("")), store.writes_applied, store.batches_applied


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("read_fraction", [0.5, 0.95])
@pytest.mark.parametrize("populated", [True, False])
def test_columnar_full_execution_matches_reference(
    seed, read_fraction, populated, transactions_built
):
    workload = ycsb(read_fraction, n_rows=40)
    stores = KVStore(), KVStore()
    if populated:
        for store in stores:
            workload.populate(store)
    executor = AriaExecutor(stores[0])
    workload.register(executor)
    pipe = ExecutionPipeline(executor)
    ref = FullReferencePipeline(plain_ycsb_logic(), stores[1])

    rng = random.Random(seed)
    gen = workload.batch_generator_for(rng)
    clock = iter(i * 0.0005 for i in range(100_000))
    sizes = [300, 300, 300, 300, 0, 1, 30, 120]
    aborts = []
    for size in sizes:
        batch = gen([next(clock) for _ in range(size)])
        result = pipe.execute_entry(batch)
        # Columns only — until the reference asks for the objects.
        assert batch._txns is None and not transactions_built
        carried = pipe._carried[1].aborted if pipe._carried else []
        committed, aborted = ref.execute_entry(batch.transactions)
        del transactions_built[:]
        assert list(carried) == aborted
        assert result.aborted == len(aborted)
        assert result.commit_times == tuple(tx.created_at for tx in committed)
        assert pipe.carryover == ref.carryover
        assert store_state(stores[0]) == store_state(stores[1])
        aborts.append(len(aborted))
    # Reads of a key an earlier update in the same entry wrote: RAW aborts
    # in consecutive entries, each carried through the sequential lane.
    assert all(aborts[:4]) and sum(aborts) == executor.total_aborted
    assert executor.total_committed == sum(sizes) - len(pipe.carryover)


def test_custom_logic_still_runs_per_transaction(transactions_built):
    workload = ycsb(n_rows=40)
    entries = [
        workload.batch_generator_for(random.Random(4))(DUE[i : i + 80])
        for i in (0, 80, 160)
    ]
    stock, custom = AriaExecutor(), AriaExecutor()
    workload.register(stock)
    workload.register(custom)
    seen = []

    def update(store, tx):
        seen.append(tx.tx_id)
        return {tx.write_keys[0]: tx.params["value"]}

    custom.register_logic("ycsb_update", update)
    stock_pipe, custom_pipe = ExecutionPipeline(stock), ExecutionPipeline(custom)
    for entry in entries:
        assert stock_pipe.execute_entry(entry) == custom_pipe.execute_entry(entry)
    assert len(transactions_built) == sum(map(len, entries))
    updates = [tx.tx_id for entry in entries for tx in entry if tx.kind == "ycsb_update"]
    assert seen == updates  # blind writes never abort: each ran exactly once
    assert store_state(stock.store) == store_state(custom.store)


@pytest.fixture
def plans_built(monkeypatch):
    """Counts conflict analyses (one per plan built)."""
    calls = []
    real = execution.aria_aborts

    def counting(read_sets, write_sets):
        calls.append(len(read_sets))
        return real(read_sets, write_sets)

    monkeypatch.setattr(execution, "aria_aborts", counting)
    return calls


class TestPlanIsSharedNotRecomputed:
    def test_many_pipelines_one_plan(self, plans_built):
        entries = random_entries("ycsb", 6) + random_entries("tpcc", 6)
        pipes = [ExecutionPipeline() for _ in range(5)]
        for entry in entries:
            results = [pipe.execute_entry(entry) for pipe in pipes]
            assert all(result == results[0] for result in results)
        assert len(plans_built) == len(entries)
        stores = [dict(pipe.store.scan_prefix("")) for pipe in pipes]
        assert all(store == stores[0] for store in stores)

    def test_once_per_entry_with_every_node_observing(self, plans_built):
        deployment = GeoDeployment(
            tiny_cluster(),
            protocol_by_name("massbft"),
            make_workload("ycsb-a"),
            offered_load=4_000.0,
            observers="all",
            seed=3,
        )
        deployment.run(duration=0.5, warmup=0.1)
        planned = [e for e in deployment.entries.values() if e.batch.plan is not None]
        executions = sum(
            node.pipeline.entries_executed
            for node in deployment.nodes.values()
            if node.is_observer
        )
        assert len(plans_built) == len(planned) > 10
        assert executions >= 12 * (len(planned) - 6)  # 12 observers, tail in flight

    def test_full_execution_decides_per_replica(self, plans_built):
        workload = ycsb(n_rows=40)
        entry = workload.batch_generator_for(random.Random(1))(DUE[:50])
        for _ in range(2):
            executor = AriaExecutor()
            workload.register(executor)
            ExecutionPipeline(executor).execute_entry(entry)
        assert len(plans_built) == 2 and entry.plan is None


@pytest.mark.parametrize("name", ["tpcc", "smallbank"])
def test_two_pipelines_fed_the_same_entries_end_with_equal_stores(name):
    """Observers share the entry's transaction objects; an abort seen by
    one pipeline must not change what the next one writes."""
    workload = (
        TpccWorkload(n_warehouses=2)
        if name == "tpcc"
        else SmallBankWorkload(n_accounts=25)
    )
    rng = random.Random(3)
    entries = [
        [workload.generate(rng, now=0.01 * i) for _ in range(40)] for i in range(20)
    ]
    # One observer runs ahead of the other, as observers in different
    # groups do.
    first, second = ExecutionPipeline(), ExecutionPipeline()
    for pipe in (first, second):
        for entry in entries:
            pipe.execute_entry(entry)
    assert first.executor.total_aborted > 0
    assert sorted(first.store.scan_prefix("")) == sorted(second.store.scan_prefix(""))
    retried = [marker[2] for _, marker in first.store.scan_prefix("")]
    assert set(retried) == {0, 1}  # a carried transaction aborted exactly once


# ----------------------------------------------------------------------
# A YCSB run builds no Transaction, modeled or real/full; tenant runs do
# ----------------------------------------------------------------------


def fig08_shaped(**options):
    """Three nationwide groups, simulated coding, constant offered load."""
    options.setdefault("offered_load", 8_000.0)
    return GeoDeployment(
        nationwide_cluster(nodes_per_group=4),
        protocol_by_name("massbft"),
        make_workload("ycsb-a"),
        seed=7,
        **options,
    )


def deep_size(obj, seen):
    """Bytes reachable from ``obj`` (containers, slots, scalars)."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        return size + sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return size + sum(deep_size(item, seen) for item in obj)
    if isinstance(obj, (str, bytes, int, float, array, range, type(None))):
        return size
    slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
    return size + sum(deep_size(getattr(obj, s), seen) for s in slots)


class TestNoMaterialisation:
    def test_modeled_run_builds_no_transaction(self, transactions_built):
        deployment = fig08_shaped()
        metrics = deployment.run(duration=0.8, warmup=0.2)
        assert metrics.committed > 10_000
        assert not transactions_built
        entries = list(deployment.entries.values())
        assert all(entry.batch._txns is None for entry in entries)
        # What an entry keeps for the run: three packed/shared columns, the
        # commit times and the survivors' write map. A Transaction graph is
        # several hundred bytes per transaction; this must stay well under.
        seen = set()
        retained = sum(deep_size(entry.batch, seen) for entry in entries)
        assert retained / sum(entry.tx_count for entry in entries) < 256

    def test_real_coded_full_execution_builds_no_transaction(
        self, transactions_built
    ):
        deployment = fig08_shaped(
            offered_load=2_000.0, coding="real", execution="full"
        )
        metrics = deployment.run(duration=0.4, warmup=0.1)
        assert metrics.committed > 0
        entries = list(deployment.entries.values())
        assert not transactions_built
        assert entries and all(e.batch._txns is None for e in entries)
        # The bytes that travelled and the writes that landed are real.
        assert all(
            len(e.payload) == e.batch.size_bytes + 4 * e.tx_count for e in entries
        )
        store = deployment.observer_of(0).pipeline.store
        values = [str(value) for _, value in store.scan_prefix("usertable/")]
        assert any(value.startswith("upd:") for value in values)

    def test_tenant_traffic_still_materialises_and_stamps_tenant(
        self, transactions_built
    ):
        spec = TrafficSpec.constant(8_000.0, n_groups=3, tenants=gold_silver_bronze())
        deployment = fig08_shaped(
            offered_load=spec.offered_load(range(3)), traffic=spec
        )
        published = []
        deployment.bus.subscribe(EntryExecuted, published.append)
        deployment.run(duration=0.4, warmup=0.1)
        assert transactions_built
        stamped = {
            tx.tenant for entry in deployment.entries.values() for tx in entry.batch
        }
        assert stamped == {0, 1, 2}
        assert published and all(
            len(e.commit_tenants) == len(e.commit_times) for e in published
        )
        assert {t for e in published for t in e.commit_tenants} == {0, 1, 2}

    def test_client_load_batch_materialises_on_iteration_only(
        self, transactions_built
    ):
        load = ClientLoad(make_workload("ycsb-a"), rate=1000.0, rng=random.Random(1))
        batch = load.take(now=0.1)
        assert len(batch) == load.admitted > 0 and not transactions_built
        assert [tx.created_at for tx in batch] == batch.due
        assert len(transactions_built) == len(batch)


#: sha256 over every published (entry id, commit_times, commit_tenants,
#: aborted), produced by running :func:`published_digest` at the parent
#: commit (6f9b10f, per-Transaction load and execution).
PARENT_PUBLISHED = {
    "constant": (
        "9fa7bae7694908c7813fe0d3e02abe0eb44eef797a0c9a354c61270e4a22a08f",
        17435,
    ),
    "tenants": (
        "f50aa02771654b601716d01b929277034a8a9ae024eaeae1aafc6bd42d1d62c5",
        17436,
    ),
    "poisson": (
        "d4c8ab12911e1c6839694a3a716dc521ddb473a0f20133a1034bf7aa5a9d8a7a",
        17381,
    ),
}


def record_executed(deployment):
    """Subscribes to ``EntryExecuted``; returns the running sha256 over
    every published (entry id, commit_times, commit_tenants, aborted) and
    the list of per-entry commit counts."""
    digest = hashlib.sha256()
    committed = []

    def on_executed(event):
        digest.update(
            repr(
                (
                    tuple(event.entry_id),
                    event.commit_times,
                    event.commit_tenants,
                    event.aborted,
                )
            ).encode()
        )
        committed.append(len(event.commit_times))

    deployment.bus.subscribe(EntryExecuted, on_executed)
    return digest, committed


def published_digest(**options):
    deployment = fig08_shaped(**options)
    digest, committed = record_executed(deployment)
    deployment.run(duration=0.8, warmup=0.2)
    return digest.hexdigest(), sum(committed)


@pytest.mark.parametrize("traffic", ["constant", "tenants", "poisson"])
def test_entry_executed_publishes_what_the_parent_commit_published(traffic):
    options = {}
    if traffic == "tenants":
        spec = TrafficSpec.constant(8_000.0, n_groups=3, tenants=gold_silver_bronze())
    elif traffic == "poisson":
        spec = TrafficSpec.poisson(8_000.0, n_groups=3)
    if traffic != "constant":
        options = {"offered_load": spec.offered_load(range(3)), "traffic": spec}
    assert published_digest(**options) == PARENT_PUBLISHED[traffic]


#: The same fig08-shaped deployment with ``coding="real"`` and
#: ``execution="full"``, at the parent commit (2d65a3c: payloads from
#: ``serialize_batch`` over materialised transactions, per-transaction
#: logic): sha256 over every payload and over every entry digest in
#: (gid, seq) order, the ``EntryExecuted`` stream, transactions committed,
#: entries, and per observer (store items sha256, writes_applied,
#: batches_applied).
PARENT_REAL_FULL = (
    "70839cacacf6d15605947ca4dcd85e1f3e79f7cad666255b966b14a7aaf59423",
    "62c957cc622eb7aa3eef07041c37e566a2f5fc7bc08a4ab8d2001440285498ce",
    "bc04238066ee0ddeccca906997e42402afc7dcaf946d0cf456f42be44af53b44",
    7920,
    87,
    [
        ("c9b063961555d04734c36261ac749d3fffcfe65221c2d9bc85c33bb7fd497f0d", 4625, 173),
        ("eeb4f181d324d97b2705bb444f31bb93827fc10221ded68e4457e1e36e7fc6fb", 4517, 169),
        ("95ce3f284669d26190b12652f6bd8d8291da8f1c20567225e6518d82c135a230", 4569, 172),
    ],
)


def test_real_full_run_ships_and_executes_what_the_parent_commit_did(monkeypatch):
    # Transaction ids are part of the payload bytes and come from one
    # process-wide sequence: start it where a fresh process does.
    monkeypatch.setattr(transactions, "_next_tx_id", 1)
    deployment = fig08_shaped(offered_load=6_000.0, coding="real", execution="full")
    executed, _ = record_executed(deployment)
    metrics = deployment.run(duration=0.6, warmup=0.15)
    payloads, digests = hashlib.sha256(), hashlib.sha256()
    for entry_id in sorted(deployment.entries):
        entry = deployment.entries[entry_id]
        payloads.update(entry.payload)
        digests.update(entry.digest)
    observers = sorted(
        (node for node in deployment.nodes.values() if node.is_observer),
        key=lambda node: node.addr,
    )
    stores = []
    for node in observers:
        items, writes, batches = store_state(node.pipeline.store)
        stores.append((hashlib.sha256(repr(items).encode()).hexdigest(), writes, batches))
    assert (
        payloads.hexdigest(),
        digests.hexdigest(),
        executed.hexdigest(),
        metrics.committed,
        len(deployment.entries),
        stores,
    ) == PARENT_REAL_FULL
    assert all(node.pipeline.executor.total_aborted > 0 for node in observers)
