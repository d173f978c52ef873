"""Columnar transaction batches and shared conflict plans.

The batch generator must be the ``generate()`` stream in another shape,
the conflict plan must be the per-transaction Aria executor
(:mod:`tests.aria_reference`) computed once, a YCSB batch's payload bytes,
full execution and queue row operations must be its transactions' without
the objects, the buffered client load must admit what its
deque-of-``Transaction`` predecessor admitted, and a YCSB run — modeled
or real-coded and fully executed, constant-rate, Poisson or multi-tenant
— must get from arrival to commit without building a ``Transaction``.
"""

import hashlib
import random
import sys
from array import array
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger import execution, transactions
from repro.ledger.execution import AriaExecutor, ExecutionPipeline
from repro.ledger.state import KVStore
from repro.ledger.transactions import Transaction, TxBatch, serialize_batch
from repro.protocols import GeoDeployment, protocol_by_name
from repro.protocols.runtime.events import ClientArrivals, EntryBatched, EntryExecuted
from repro.protocols.runtime.load import ClientLoad
from repro.topology import nationwide_cluster
from repro.traffic import (
    ConstantCurve,
    FlashCrowdCurve,
    HotspotDrift,
    MMPPProcess,
    PoissonProcess,
    Tenant,
    TenantMix,
    TrafficSpec,
    gold_silver_bronze,
)
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
from tests.eager_population import materialized, populate


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
# Row operations: a columnar batch as a FIFO == the wrapped-tuple base
# ----------------------------------------------------------------------


def columns(batch):
    """Everything a consumer reads without asking for the objects."""
    name = batch.key_name or (lambda key: key)
    reads, writes = batch.key_sets()
    return (
        len(batch),
        list(batch.tx_ids()),
        batch.due,
        batch.tenants,
        [tuple(map(name, keys)) for keys in reads],
        [tuple(map(name, keys)) for keys in writes],
        batch.size_bytes,
        batch.serialize(),
    )


def objects(batch):
    return [fields(tx) + (tx.tx_id, tx.tenant) for tx in batch.transactions]


def assert_same_rows(columnar, reference):
    assert type(columnar) is YcsbBatch and type(reference) is TxBatch
    assert columns(columnar) == columns(reference)
    assert columnar._txns is None  # no operation or column needed the objects
    assert objects(columnar) == objects(reference)
    columnar._txns = None  # columnar again for the next operation


def mirror(batch):
    """The base-class batch of ``batch``'s transactions (materialised
    from a copy, so ``batch`` itself stays columnar)."""
    tenants = batch.tenants
    copy = YcsbBatch(
        list(batch.due),
        batch.codes[:],
        batch.values[:],
        batch.ids[:],
        None if tenants is None else list(tenants),
    )
    return TxBatch(copy.transactions, None if tenants is None else list(tenants))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 1 << 16),
    with_tenants=st.booleans(),
    program=st.lists(
        st.tuples(
            st.sampled_from(["extend", "split_front", "gather"]),
            st.integers(0, 1 << 20),
        ),
        max_size=12,
    ),
)
def test_row_operations_equal_the_per_transaction_reference(
    seed, with_tenants, program
):
    rng = random.Random(seed)
    gen = ycsb(n_rows=50).batch_generator_for(random.Random(seed + 1))
    clock = iter(i * 0.001 for i in range(10_000))

    def arrivals(n):
        # Another group reserved ids in between, or did not: the joined
        # id column is packed or still a range.
        transactions.reserve_tx_ids(rng.choice((0, 3)))
        batch = gen([next(clock) for _ in range(n)])
        if with_tenants:
            batch.tenants = [rng.randrange(3) for _ in range(n)]
        return batch

    queue = arrivals(rng.randrange(8))
    reference = mirror(queue)
    for operation, arg in program:
        if operation == "extend":
            other = arrivals(arg % 9)
            reference.extend(mirror(other))
            queue.extend(other)
        elif operation == "split_front":
            n = arg % (len(queue) + 2)  # past the end: everything
            assert_same_rows(queue.split_front(n), reference.split_front(n))
        else:
            rows = [rng.randrange(len(queue)) for _ in range(arg % 7) if len(queue)]
            assert_same_rows(queue.gather(rows), reference.gather(rows))
        assert_same_rows(queue, reference)


def test_id_column_is_a_range_while_contiguous_and_packed_after():
    gen = ycsb().batch_generator_for(random.Random(2))
    queue = gen([])
    queue.extend(gen(DUE[:5]))
    queue.extend(gen(DUE[5:8]))  # the very next reservation: adjacent
    first = queue.ids.start
    assert queue.ids == range(first, first + 8)
    assert queue.split_front(2).ids == range(first, first + 2)
    transactions.reserve_tx_ids(4)
    queue.extend(gen(DUE[8:10]))
    expected = list(range(first + 2, first + 8)) + [first + 12, first + 13]
    assert type(queue.ids) is array and list(queue.ids) == expected
    assert [tx.tx_id for tx in queue] == expected
    gathered = queue.gather([7, 0])
    assert type(gathered.ids) is array and list(gathered.tx_ids()) == expected[::-7]


def test_tenant_column_is_mirrored_on_whatever_objects_exist():
    batch = ycsb().batch_generator_for(random.Random(3))(DUE[:4])
    batch.tenants = [2, 0, 1, 2]
    assert batch._txns is None
    assert [tx.tenant for tx in batch] == [2, 0, 1, 2]
    batch.tenants = [0, 1, 2, 0]  # objects exist now: restamped
    assert [tx.tenant for tx in batch] == [0, 1, 2, 0]
    wrapped = TxBatch(batch.transactions[:2], [1, 1])
    assert [tx.tenant for tx in wrapped] == [1, 1]
    assert TxBatch(batch.transactions).tenants is None


# ----------------------------------------------------------------------
# Buffered admission == the deque-of-Transaction load it replaced
# ----------------------------------------------------------------------


class ReferenceBufferedLoad:
    """``ClientLoad``'s buffered path as it was before the queues went
    columnar (commit cade82c), verbatim: every arrival materialised into
    per-priority deques of ``Transaction``."""

    def __init__(self, workload, rng, queue_seconds, process, tenants, tenant_rng):
        self.queue_seconds = queue_seconds
        self.process = process
        self.tenants = tenants
        self.tenant_rng = tenant_rng
        self.offered = 0
        self.admitted = 0
        self.dropped = 0
        n_tenants = len(tenants) if tenants is not None else 0
        self.offered_by_tenant = [0] * n_tenants
        self.admitted_by_tenant = [0] * n_tenants
        self.dropped_by_tenant = [0] * n_tenants
        self._gen = workload.batch_generator_for(rng)
        if tenants is None:
            priorities = (0,)
        else:
            priorities = tuple(sorted(set(tenants.priorities)))
        self._prio_index = {p: i for i, p in enumerate(priorities)}
        self._queues = tuple(deque() for _ in priorities)
        self._queue_order = tuple(
            sorted(range(len(priorities)), key=lambda i: -priorities[i])
        )

    def take(self, now, max_n=None):
        gen = self._gen
        tenants = self.tenants
        queues = self._queues
        arrived = gen(self.process.take_until(now)).transactions
        self.offered += len(arrived)
        if tenants is not None:
            pick = tenants.pick
            tenant_rng = self.tenant_rng
            tenant_priorities = tenants.priorities
            prio_index = self._prio_index
            offered_by_tenant = self.offered_by_tenant
            for tx in arrived:
                tenant = pick(tenant_rng)
                offered_by_tenant[tenant] += 1
                tx.tenant = tenant
                queues[prio_index[tenant_priorities[tenant]]].append(tx)
        else:
            queues[0].extend(arrived)
        horizon = now - self.queue_seconds
        dropped_by_tenant = self.dropped_by_tenant
        for queue in queues:
            while queue and queue[0].created_at < horizon:
                tx = queue.popleft()
                self.dropped += 1
                if tenants is not None:
                    dropped_by_tenant[tx.tenant] += 1
        txns = []
        append = txns.append
        budget = max_n if max_n is not None else -1
        admitted_by_tenant = self.admitted_by_tenant
        for index in self._queue_order:
            queue = queues[index]
            while queue:
                if budget == 0:
                    break
                tx = queue.popleft()
                append(tx)
                if tenants is not None:
                    admitted_by_tenant[tx.tenant] += 1
                budget -= 1
        self.admitted += len(txns)
        if tenants is None:
            return TxBatch(txns)
        return TxBatch(txns, [tx.tenant for tx in txns])


PROCESSES = {
    "poisson": lambda rng: PoissonProcess(ConstantCurve(3000.0), rng),
    "flash": lambda rng: PoissonProcess(
        FlashCrowdCurve(800.0, 9000.0, start=0.3, duration=0.5, ramp=0.05), rng
    ),
    "mmpp": lambda rng: MMPPProcess(((6000.0, 0.08), (0.0, 0.05), (500.0, 0.1)), rng),
}

MIXES = {
    "single": lambda: None,
    "gold-silver-bronze": gold_silver_bronze,
    # Two tenants in one priority class, and indices not in priority order.
    "shared-class": lambda: TenantMix(
        [Tenant("a", 0.3, 1), Tenant("b", 0.3, 5), Tenant("c", 0.4, 1)]
    ),
}


def admission_trace(make_load, workload_name, process, mix, max_n, monkeypatch):
    """Drive one load through 80 takes on an uneven clock while the
    admission window moves (the AIMD controller retunes it mid-run);
    returns what every take admitted and all the state left behind."""
    monkeypatch.setattr(transactions, "_next_tx_id", 1)
    rngs = [random.Random(seed) for seed in (21, 22, 23)]
    tenants = MIXES[mix]()
    load = make_load(
        make_workload(workload_name),
        rng=rngs[0],
        queue_seconds=0.06,
        process=PROCESSES[process](rngs[1]),
        tenants=tenants,
        tenant_rng=rngs[2] if tenants is not None else None,
    )
    clock = random.Random(5)
    now, takes = 0.0, []
    for step in range(80):
        now += clock.choice((0.0, 0.004, 0.012, 0.03))
        load.queue_seconds = (0.06, 0.01, 0.2, 0.03, 0.06)[step // 16]
        batch = load.take(now, max_n)
        takes.append(
            (
                list(batch.tx_ids()),
                list(batch.due),
                batch.tenants,
                batch.size_bytes,
                objects(batch),
                (load.offered, load.admitted, load.dropped),
                (
                    list(load.offered_by_tenant),
                    list(load.admitted_by_tenant),
                    list(load.dropped_by_tenant),
                ),
            )
        )
    queued = [
        [(tx.tx_id, tx.created_at, tx.tenant) for tx in queue]
        for queue in load._queues
    ]
    return takes, queued, [rng.getstate() for rng in rngs]


@pytest.mark.parametrize("workload_name", ["ycsb-a", "smallbank"])
@pytest.mark.parametrize("process", PROCESSES)
@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("max_n", [None, 25])
def test_buffered_take_equals_the_deque_reference(
    workload_name, process, mix, max_n, monkeypatch
):
    args = (workload_name, process, mix, max_n, monkeypatch)
    takes, queued, streams = admission_trace(ClientLoad, *args)
    ref_takes, ref_queued, ref_streams = admission_trace(ReferenceBufferedLoad, *args)
    for take, expected in zip(takes, ref_takes):
        assert take == expected
    assert queued == ref_queued and streams == ref_streams
    offered, admitted, dropped = takes[-1][5]
    assert dropped > 0 and admitted > 0
    assert offered == admitted + dropped + sum(map(len, queued))
    if max_n is not None:  # the cap bound and left a remainder queued
        assert any(len(take[0]) == max_n for take in takes)


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
            populate(workload, store)
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
        batches = capture_batches(deployment)
        deployment.run(duration=0.5, warmup=0.1)
        planned = [batch for batch in batches.values() if batch.plan is not None]
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
# A YCSB run builds no Transaction: modeled or real/full, any traffic
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


def capture_batches(deployment):
    """Every entry's batch, by entry id, taken as the entry forms: an
    entry drops its batch once every live observer has executed it."""
    batches = {}

    def on_batched(event):
        batches[event.entry_id] = deployment.entries[event.entry_id].batch

    deployment.bus.subscribe(EntryBatched, on_batched)
    return batches


def capture_payloads(deployment):
    """Every entry's payload bytes, by entry id, taken as the entry
    forms: an entry drops its payload with its batch."""
    payloads = {}

    def on_batched(event):
        payloads[event.entry_id] = deployment.entries[event.entry_id].payload

    deployment.bus.subscribe(EntryBatched, on_batched)
    return payloads


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
    def assert_run_stayed_columnar(self, batches, metrics, transactions_built):
        assert metrics.committed > 10_000
        assert not transactions_built
        batches = list(batches.values())
        assert all(batch._txns is None for batch in batches)
        # What a batch holds while its entry is in flight: a few
        # packed/shared columns, the commit times and the survivors' write
        # map. A Transaction graph is several hundred bytes per
        # transaction; this must stay well under.
        seen = set()
        retained = sum(deep_size(batch, seen) for batch in batches)
        assert retained / sum(len(batch) for batch in batches) < 256

    def test_modeled_run_builds_no_transaction(self, transactions_built):
        deployment = fig08_shaped()
        batches = capture_batches(deployment)
        metrics = deployment.run(duration=0.8, warmup=0.2)
        self.assert_run_stayed_columnar(batches, metrics, transactions_built)

    def test_flash_crowd_tenant_run_builds_no_transaction(self, transactions_built):
        # A saturating spike: queue remainders, shedding, packed id columns
        # and a tenant column on every entry.
        spec = TrafficSpec.flash_crowd(
            base=8_000.0,
            spike=40_000.0,
            start=0.3,
            duration=0.3,
            n_groups=3,
            tenants=gold_silver_bronze(),
        )
        deployment = fig08_shaped(
            offered_load=spec.offered_load(range(3)), traffic=spec
        )
        batches = capture_batches(deployment)
        metrics = deployment.run(duration=0.8, warmup=0.2)
        assert metrics.dropped_txns > 0
        assert any(type(batch.tx_ids()) is array for batch in batches.values())
        assert all(len(batch.tenants) == len(batch) for batch in batches.values())
        self.assert_run_stayed_columnar(batches, metrics, transactions_built)

    def test_real_coded_full_execution_builds_no_transaction(
        self, transactions_built
    ):
        deployment = fig08_shaped(
            offered_load=2_000.0, coding="real", execution="full"
        )
        batches = capture_batches(deployment)
        metrics = deployment.run(duration=0.4, warmup=0.1)
        assert metrics.committed > 0
        entries = list(deployment.entries.values())
        assert not transactions_built
        assert entries and all(batch._txns is None for batch in batches.values())
        # The bytes that travelled and the writes that landed are real.
        assert all(
            e.payload_size == batches[e.entry_id].size_bytes + 4 * e.tx_count
            for e in entries
        )
        store = deployment.observer_of(0).pipeline.store
        values = [str(value) for _, value in store.scan_prefix("usertable/")]
        assert any(value.startswith("upd:") for value in values)

    @pytest.mark.parametrize("process", ["constant", "poisson"])
    def test_tenant_traffic_builds_no_transaction(self, process, transactions_built):
        make_spec = getattr(TrafficSpec, process)
        spec = make_spec(8_000.0, n_groups=3, tenants=gold_silver_bronze())
        deployment = fig08_shaped(
            offered_load=spec.offered_load(range(3)), traffic=spec
        )
        published = []
        deployment.bus.subscribe(EntryExecuted, published.append)
        batches = capture_batches(deployment)
        deployment.run(duration=0.4, warmup=0.1)
        assert not transactions_built
        batches = list(batches.values())
        assert {t for batch in batches for t in batch.tenants} == {0, 1, 2}
        assert published and all(
            len(e.commit_tenants) == len(e.commit_times) for e in published
        )
        assert {t for e in published for t in e.commit_tenants} == {0, 1, 2}
        # Whoever does ask for the objects finds the tenant on them.
        for batch in batches:
            assert [tx.tenant for tx in batch] == batch.tenants
        assert len(transactions_built) == sum(len(batch) for batch in batches)

    def test_poisson_traffic_builds_no_transaction(self, transactions_built):
        spec = TrafficSpec.poisson(8_000.0, n_groups=3)
        deployment = fig08_shaped(
            offered_load=spec.offered_load(range(3)), traffic=spec
        )
        batches = capture_batches(deployment)
        metrics = deployment.run(duration=0.4, warmup=0.1)
        assert metrics.committed > 3_000 and not transactions_built
        assert all(batch.tenants is None for batch in batches.values())

    def test_client_load_batch_materialises_on_iteration_only(
        self, transactions_built
    ):
        load = ClientLoad(make_workload("ycsb-a"), rate=1000.0, rng=random.Random(1))
        batch = load.take(now=0.1)
        assert len(batch) == load.admitted > 0 and not transactions_built
        assert [tx.created_at for tx in batch] == batch.due
        assert len(transactions_built) == len(batch)


def test_published_arrivals_account_for_every_arrival():
    """Bursts against a small batch cap: some batches are served purely
    from the queue remainder (nothing new offered, nothing dropped), and
    those admissions are published too."""
    spec = TrafficSpec.mmpp(
        ((30_000.0, 0.04), (0.0, 0.15)), n_groups=3, tenants=gold_silver_bronze()
    )
    deployment = fig08_shaped(offered_load=spec.offered_load(range(3)), traffic=spec)
    for group in deployment.groups.values():
        group.load_stage.max_batch_txns = 150
        group.load_stage.load.queue_seconds = 0.1
    published = {gid: [0, 0, 0] for gid in range(3)}
    by_tenant = {gid: [[0] * 3, [0] * 3, [0] * 3] for gid in range(3)}
    remainder_only = []

    def on_arrivals(event):
        deltas = (event.offered, event.admitted, event.dropped)
        tenant_deltas = (
            event.offered_by_tenant,
            event.admitted_by_tenant,
            event.dropped_by_tenant,
        )
        for kind in range(3):
            published[event.gid][kind] += deltas[kind]
            assert sum(tenant_deltas[kind]) == deltas[kind]
            for tenant, count in enumerate(tenant_deltas[kind]):
                by_tenant[event.gid][kind][tenant] += count
        if event.admitted and not event.offered and not event.dropped:
            remainder_only.append(event)

    deployment.bus.subscribe(ClientArrivals, on_arrivals)
    deployment.run(duration=1.0, warmup=0.0)  # ends with two groups mid-burst
    assert remainder_only
    still_queued = 0
    for gid, group in deployment.groups.items():
        load = group.load_stage.load
        queued = sum(map(len, load._queues))
        still_queued += queued
        assert load.dropped > 0
        assert load.offered == load.admitted + load.dropped + queued
        assert published[gid] == [load.offered, load.admitted, load.dropped]
        assert by_tenant[gid] == [
            load.offered_by_tenant,
            load.admitted_by_tenant,
            load.dropped_by_tenant,
        ]
    assert still_queued > 0


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
#: batches_applied). The parent loaded the initial tables into every
#: observer's store; a store now holds only what was written, so its
#: items are hashed on top of those tables (``materialized``).
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
    shipped = capture_payloads(deployment)
    metrics = deployment.run(duration=0.6, warmup=0.15)
    assert shipped.keys() == deployment.entries.keys()
    payloads, digests = hashlib.sha256(), hashlib.sha256()
    for entry_id in sorted(deployment.entries):
        entry = deployment.entries[entry_id]
        payloads.update(shipped[entry_id])
        digests.update(entry.digest)
    observers = sorted(
        (node for node in deployment.nodes.values() if node.is_observer),
        key=lambda node: node.addr,
    )
    stores = []
    for node in observers:
        items, writes, batches = store_state(
            materialized(deployment.workload, node.pipeline.store)
        )
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


def test_observer_stores_share_each_written_column_and_hold_what_they_did():
    """A batch builds each row's storage key and new column value once,
    so every observer's store holds the same string objects: the same
    key objects, and where two stores hold the same value for a key, one
    value object. What each store holds is still the per-transaction
    reference's, replayed over that observer's own ledger order."""
    deployment = fig08_shaped(
        offered_load=6_000.0, coding="real", execution="full", observers="all"
    )
    batches = capture_batches(deployment)
    deployment.run(duration=0.6, warmup=0.15)
    observers = [node for node in deployment.nodes.values() if node.is_observer]
    assert len(observers) == 12

    for node in observers:
        reference = FullReferencePipeline(plain_ycsb_logic(), KVStore())
        for entry_id in node.ledger.order():
            reference.execute_entry(batches[entry_id].transactions)
        assert store_state(node.pipeline.store) == store_state(reference.store)

    first = observers[0].pipeline.store._data
    key_objects = {id(key) for key in first}
    shared = 0
    for node in observers[1:]:
        other = node.pipeline.store._data
        common = first.keys() & other.keys()
        assert len(common) > 1_000
        # The batch that first wrote a key is the same everywhere.
        assert all(id(key) in key_objects for key in other if key in first)
        for key in common:
            if first[key] == other[key]:
                assert first[key] is other[key]
                shared += 1
    # Observers a few entries apart still agree on almost every column.
    assert shared > 0.9 * len(first) * (len(observers) - 1)
