"""Tests for the Zipf generator and the three OLTP workloads."""

import random
from collections import Counter

import pytest

from repro.ledger.execution import AriaExecutor, ExecutionPipeline
from repro.ledger.state import KVStore
from repro.workloads import make_workload
from repro.workloads.smallbank import (
    CHECKING,
    INITIAL_CHECKING,
    SAVINGS,
    SmallBankWorkload,
)
from repro.workloads.tpcc import (
    INITIAL_DISTRICT,
    INITIAL_WAREHOUSE,
    TpccWorkload,
    district_key,
)
from repro.workloads.ycsb import N_COLUMNS, YcsbWorkload, initial_column
from repro.workloads.zipf import ZipfGenerator
from tests.eager_population import initial_row, populate


def average_tx_size(workload, rng, samples):
    """Empirical mean wire size of ``workload``'s transactions."""
    return sum(workload.generate(rng).size_bytes for _ in range(samples)) / samples


class TestZipf:
    def test_range(self):
        gen = ZipfGenerator(100, 0.99, random.Random(1))
        samples = [gen.sample() for _ in range(2000)]
        assert all(0 <= s < 100 for s in samples)

    def test_skew_favors_low_ranks(self):
        gen = ZipfGenerator(1000, 0.99, random.Random(2))
        counts = Counter(gen.sample() for _ in range(20000))
        top_10 = sum(counts[i] for i in range(10))
        assert top_10 > 0.3 * 20000  # zipf(0.99): top-10 ranks dominate

    def test_rank_frequencies_decrease(self):
        gen = ZipfGenerator(1000, 0.99, random.Random(3))
        counts = Counter(gen.sample() for _ in range(50000))
        assert counts[0] > counts[10] > counts[200]

    def test_scrambled_spreads_hot_keys(self):
        gen = ZipfGenerator(1000, 0.99, random.Random(4))
        hot = Counter(gen.sample_scrambled() for _ in range(20000))
        top_key, _ = hot.most_common(1)[0]
        assert top_key != 0  # hot keys scattered over the space

    def test_deterministic(self):
        a = ZipfGenerator(100, 0.99, random.Random(7))
        b = ZipfGenerator(100, 0.99, random.Random(7))
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 0.99)
        with pytest.raises(ValueError):
            ZipfGenerator(10, 1.5)


class TestFactory:
    def test_names(self):
        assert make_workload("ycsb-a").read_fraction == 0.5
        assert make_workload("YCSB-B").read_fraction == 0.95
        assert make_workload("smallbank").name == "smallbank"
        assert make_workload("tpcc").name == "tpcc"
        with pytest.raises(ValueError):
            make_workload("nope")

    @pytest.mark.parametrize(
        "name,target",
        [("ycsb-a", 201), ("ycsb-b", 150), ("smallbank", 108), ("tpcc", 232)],
    )
    def test_average_sizes_match_paper(self, name, target):
        wl = make_workload(name)
        avg = average_tx_size(wl, random.Random(1), samples=2000)
        assert abs(avg - target) < 0.08 * target


class TestYcsb:
    def test_mix_fractions(self):
        wl = YcsbWorkload(read_fraction=0.95, n_rows=1000)
        rng = random.Random(1)
        kinds = Counter(wl.generate(rng).kind for _ in range(2000))
        assert kinds["ycsb_read"] > 1800

    def test_read_has_no_writes(self):
        wl = YcsbWorkload(read_fraction=1.0, n_rows=100)
        t = wl.generate(random.Random(1))
        assert t.read_keys and not t.write_keys

    def test_update_executes_against_store(self):
        wl = YcsbWorkload(read_fraction=0.0, n_rows=100)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        t = wl.generate(random.Random(2))
        result = ex.execute_batch([t])
        assert len(result.committed) == 1
        assert store.get(t.write_keys[0]) == t.params["value"]

    def test_concurrent_updates_same_hot_column_all_commit(self):
        """Blind single-column updates never abort (Aria reordering):
        the last writer in batch order wins deterministically."""
        wl = YcsbWorkload(read_fraction=0.0, n_rows=100)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        rng = random.Random(3)
        a, b = wl.generate(rng), wl.generate(rng)
        b.params = dict(a.params, value="winner".ljust(100, "y"))
        b.write_keys = a.write_keys
        result = ex.execute_batch([a, b])
        assert len(result.committed) == 2
        assert store.get(a.write_keys[0]).startswith("winner")

    def test_lazy_rows_readable(self):
        wl = YcsbWorkload(read_fraction=1.0, n_rows=10**6)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        for _ in range(20):
            t = wl.generate(random.Random(3))
            ex.execute_batch([t])  # must not raise on unwritten rows

    def test_single_column_default_equals_row_column(self):
        # Reads default an unwritten column without building the row.
        for key in (0, 7, 10**6 - 1):
            row = initial_row(key)
            assert len(row) == N_COLUMNS
            for column in range(N_COLUMNS):
                assert initial_column(key, column) == row[f"field{column}"]


class TestSmallBank:
    def test_send_payment_conserves_money(self):
        wl = SmallBankWorkload(n_accounts=50)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        rng = random.Random(4)
        pipe = ExecutionPipeline(ex)
        payments = [
            t
            for t in (wl.generate(rng) for _ in range(300))
            if t.kind == "sb_send_payment"
        ]
        for p in payments:
            pipe.execute_entry([p])
        # Unwritten accounts still hold their initial balance.
        moved = sum(v - INITIAL_CHECKING for _, v in store.scan_prefix(f"{CHECKING}/"))
        assert store.writes_applied > 0 and moved == 0

    def test_amalgamate_zeros_source(self):
        wl = SmallBankWorkload(n_accounts=10)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        rng = random.Random(5)
        t = next(
            t for t in (wl.generate(rng) for _ in range(200)) if t.kind == "sb_amalgamate"
        )
        ex.execute_batch([t])
        a = t.params["a"]
        assert store.read_row(SAVINGS, a) == 0
        assert store.read_row(CHECKING, a) == 0

    def test_mix_covers_all_kinds(self):
        wl = SmallBankWorkload(n_accounts=100)
        rng = random.Random(6)
        kinds = {wl.generate(rng).kind for _ in range(500)}
        assert len(kinds) == 6

    def test_uniform_access(self):
        wl = SmallBankWorkload(n_accounts=10)
        rng = random.Random(7)
        accounts = Counter(wl.generate(rng).params["a"] for _ in range(5000))
        assert max(accounts.values()) < 3 * min(accounts.values())


class TestTpcc:
    def test_mix_is_50_50(self):
        wl = TpccWorkload(n_warehouses=8)
        rng = random.Random(8)
        kinds = Counter(wl.generate(rng).kind for _ in range(4000))
        assert abs(kinds["tpcc_payment"] - kinds["tpcc_neworder"]) < 400

    def test_payment_updates_warehouse_ytd(self):
        wl = TpccWorkload(n_warehouses=2)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        rng = random.Random(9)
        t = next(
            t for t in (wl.generate(rng) for _ in range(50)) if t.kind == "tpcc_payment"
        )
        ex.execute_batch([t])
        w = store.read_row("warehouse", t.params["w"])
        assert w["w_ytd"] == pytest.approx(t.params["amount"])

    def test_neworder_increments_next_o_id(self):
        wl = TpccWorkload(n_warehouses=2)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        rng = random.Random(10)
        t = next(
            t
            for t in (wl.generate(rng) for _ in range(50))
            if t.kind == "tpcc_neworder"
        )
        key = district_key(t.params["w"], t.params["d"])
        before = store.get(key, INITIAL_DISTRICT)["next_o_id"]
        ex.execute_batch([t])
        after = store.get(key)["next_o_id"]
        assert after == before + 1

    def test_hotspot_conflicts_under_big_batches(self):
        """The Fig 8d effect: few warehouses + large batch => aborts."""
        wl = TpccWorkload(n_warehouses=4)
        store = KVStore()
        ex = AriaExecutor(store)
        wl.register(ex)
        rng = random.Random(11)
        big_batch = [wl.generate(rng) for _ in range(200)]
        result = ex.execute_batch(big_batch)
        assert result.abort_rate > 0.2

    def test_small_batches_abort_less(self):
        wl = TpccWorkload(n_warehouses=128)
        rng = random.Random(12)
        big = AriaExecutor(KVStore())
        small = AriaExecutor(KVStore())
        wl.register(big)
        wl.register(small)
        txns = [wl.generate(rng) for _ in range(300)]
        big_rate = big.execute_batch(list(txns)).abort_rate
        small_aborts = 0
        for i in range(0, 300, 30):
            small_aborts += len(small.execute_batch(txns[i : i + 30]).aborted)
        assert small_aborts / 300 < big_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            TpccWorkload(n_warehouses=0)

    def test_written_rows_equal_the_eager_tables_field_for_field(self):
        """A warehouse or district row written from an empty store is the
        row the eager tables' copy would have become, key order included
        (the order is in every store digest): both kinds read one
        default, equal to the loaded row."""
        wl = TpccWorkload(n_warehouses=2)
        lazy, eager = KVStore(), KVStore()
        populate(wl, eager)
        pipelines = []
        for store in (lazy, eager):
            ex = AriaExecutor(store)
            wl.register(ex)
            pipelines.append(ExecutionPipeline(ex))
        rng = random.Random(13)
        txns = [wl.generate(rng) for _ in range(60)]
        assert {t.kind for t in txns} == {"tpcc_payment", "tpcc_neworder"}
        for i in range(0, 60, 6):
            results = [pipe.execute_entry(txns[i : i + 6]) for pipe in pipelines]
            assert results[0] == results[1]
        rows = [
            key
            for key, _ in lazy.scan_prefix("")
            if key.startswith(("warehouse/", "district/"))
        ]
        assert any(key.startswith("warehouse/") for key in rows)
        assert any(key.startswith("district/") for key in rows)
        for key in rows:
            assert list(lazy.get(key).items()) == list(eager.get(key).items())
        assert set(INITIAL_WAREHOUSE) == {"w_ytd", "w_tax"}
        assert set(INITIAL_DISTRICT) == {"next_o_id", "d_ytd", "d_tax"}
