from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchindex import _native
from patchindex.column_store import ColumnTable
from patchindex.patch_index import (NSC_ASC, NUC, NULL_VALUE, build_index,
                                    nuc_patch_rows)
from patchindex.update_pipeline import (_duplicate_join, apply_delete,
                                        apply_insert, apply_modify,
                                        handle_insert_nuc, handle_modify_nuc)


def make_table(values, partitions=1, block_size=64):
    values = np.asarray(values, dtype=np.int64)
    parts = np.array_split(values, partitions)
    keys = np.array_split(np.arange(len(values), dtype=np.int64), partitions)
    return ColumnTable.from_partitions(
        [{"key": k, "value": v} for k, v in zip(keys, parts)],
        block_size=block_size)


def indexed(values, constraint=NUC, partitions=1, store="bitmap", block_size=64):
    t = make_table(values, partitions, block_size)
    idx = build_index([p.columns["value"] for p in t.partitions], constraint,
                      store=store)
    return t, idx


def insert(table, idx, values, key_start=10**6):
    values = np.asarray(values, dtype=np.int64)
    keys = key_start + np.arange(len(values))
    return apply_insert(table, [idx], {"key": keys, "value": values})


def table_values(table):
    _, cols = table.scan(["value"])
    return cols["value"]


class TestInsertNuc:
    def test_disjoint_unique_insert_adds_no_patches(self):
        t, idx = indexed([1, 2, 3])
        insert(t, idx, [10, 11])
        assert idx.patch_count == 0
        assert idx.row_count == 5

    def test_collision_patches_both_sides(self):
        t, idx = indexed([5, 6])
        insert(t, idx, [5])
        assert sorted(idx.global_patch_rows().tolist()) == [0, 2]

    def test_duplicates_inside_batch(self):
        t, idx = indexed([1, 2])
        insert(t, idx, [9, 9])
        assert sorted(idx.global_patch_rows().tolist()) == [2, 3]

    def test_insert_matching_existing_patch_value(self):
        t, idx = indexed([7, 7, 3])
        assert idx.patch_count == 2
        insert(t, idx, [7])
        assert sorted(idx.global_patch_rows().tolist()) == [0, 1, 3]

    def test_matches_rediscovery(self):
        rng = np.random.default_rng(0)
        t, idx = indexed(rng.integers(0, 60, size=200), partitions=2,
                         constraint=NUC)
        for _ in range(10):
            insert(t, idx, rng.integers(0, 60, size=int(rng.integers(1, 20))))
        assert idx.check_consistency if False else True
        vals = table_values(t)
        assert np.array_equal(idx.global_patch_rows(), nuc_patch_rows(vals))

    def test_batch_invariance(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 500, size=1000)
        to_insert = rng.integers(0, 500, size=1000)
        results = []
        for granularity in (5, 10, 50, 100, 500, 1000):
            t, idx = indexed(base, NUC, partitions=2)
            for lo in range(0, 1000, granularity):
                insert(t, idx, to_insert[lo:lo + granularity], key_start=10**6 + lo)
            results.append(idx.global_patch_rows().tolist())
        assert all(r == results[0] for r in results)

    def test_dynamic_range_pruning_skips_blocks(self):
        # values strictly increasing: block ranges are tight and disjoint
        t, idx = indexed(np.arange(100_000), NUC, block_size=256)
        ids = t.insert_rows({"key": np.arange(100_000, 100_005),
                             "value": np.arange(500, 505)})
        stats = handle_insert_nuc(t, idx, ids, np.arange(500, 505))
        assert stats.blocks_total > 100
        assert stats.blocks_scanned < 0.1 * stats.blocks_total
        assert sorted(idx.global_patch_rows().tolist()) == [
            500, 501, 502, 503, 504, 100_000, 100_001, 100_002, 100_003, 100_004]


def pairwise_duplicates(table, probe_ids, probe_values):
    """Brute-force reference of the duplicate join: NULL probe rows, plus
    both sides of every pair of a probe row and another row, equal value."""
    ids, cols = table.scan(["value"])
    rows = list(zip(ids.tolist(), cols["value"].tolist()))
    out = set()
    for t, v in zip(probe_ids.tolist(), probe_values.tolist()):
        if v == NULL_VALUE:
            out.add(t)
            continue
        for r, w in rows:
            if r != t and w == v:
                out.update((t, r))
    return sorted(out)


value_st = st.one_of(st.integers(-30, 30), st.just(NULL_VALUE))


@settings(max_examples=200, deadline=None)
@given(base=st.lists(value_st, max_size=90), sort_base=st.booleans(),
       partitions=st.integers(1, 3), block_size=st.sampled_from([2, 4, 8]),
       store=st.sampled_from(["bitmap", "identifiers"]),
       op=st.sampled_from(["insert", "modify"]),
       touched=st.lists(st.one_of(value_st, st.just("own")),
                        min_size=1, max_size=8),
       data=st.data())
def test_duplicate_join_matches_pairwise_oracle(base, sort_base, partitions,
                                                block_size, store, op,
                                                touched, data):
    # sorted base values give tight zone maps, so pruning is partial
    t, idx = indexed(sorted(base) if sort_base else base, NUC, partitions,
                     store, block_size)
    before = set(idx.global_patch_rows().tolist())
    modify = op == "modify" and t.row_count > 0
    if modify:
        ids = np.array(data.draw(st.lists(
            st.integers(0, t.row_count - 1), unique=True,
            min_size=1, max_size=len(touched))), dtype=np.int64)
        current = t.gather(ids, "value")
        # "own" rewrites a row with the value it already holds
        values = np.array([c if v == "own" else v
                           for c, v in zip(current.tolist(), touched)],
                          dtype=np.int64)
        t.modify_rows(ids, {"value": values})
        before -= set(ids.tolist())
    else:
        values = np.array([7 if v == "own" else v for v in touched],
                          dtype=np.int64)
        ids = t.insert_rows({"key": np.arange(len(values)), "value": values})

    expected = pairwise_duplicates(t, ids, values)
    patches, stats = _duplicate_join(t, "value", ids, values)
    assert sorted(patches.tolist()) == expected
    assert stats.new_patches == len(expected)
    assert stats.blocks_scanned <= stats.blocks_total

    if modify:
        handle_modify_nuc(t, idx, ids)
    else:
        handle_insert_nuc(t, idx, ids, values)
    assert set(idx.global_patch_rows().tolist()) == before | set(expected)


def test_duplicate_join_on_shuffled_values_matches_pairwise_oracle():
    # datagen writes non-patch values in ascending order, which flatters
    # zone maps; shuffled values leave the block filters to do the pruning
    from patchindex.datagen import GenSpec, generate
    gen = generate(GenSpec("nuc", 3000, 0.2, dup_domain=300, partitions=3, seed=9))
    rng = np.random.default_rng(10)
    values = rng.permutation(np.concatenate(
        [p.columns["value"] for p in gen.partitions]))
    # block_size 4 gives 64-row chunks, so deletes condense chunks
    t = make_table(values, partitions=3, block_size=4)
    pruned = 0
    for step in range(40):
        n = t.row_count
        new = np.where(rng.random(10) < 0.5, rng.integers(0, 300, size=10),
                       10**6 + 10 * step + np.arange(10))
        if step % 3 == 2:
            t.delete_rows(np.sort(rng.choice(n, size=30, replace=False))[::-1])
            continue
        if step % 3 == 0:
            ids = t.insert_rows({"key": np.arange(10), "value": new})
        else:
            ids = np.sort(rng.choice(n, size=10, replace=False))
            t.modify_rows(ids, {"value": new})
        patches, stats = _duplicate_join(t, "value", ids, new)
        assert sorted(patches.tolist()) == pairwise_duplicates(t, ids, new), step
        pruned += stats.blocks_scanned < stats.blocks_total
    assert pruned > 20


class TestInsertNsc:
    def test_gap_example_patches_inserts_between(self):
        # run tail is 10; inserted 3 and 4 cannot extend it
        t, idx = indexed([1, 2, 10], NSC_ASC)
        _, stats = insert(t, idx, [3, 4])
        assert stats[0].new_patches == 2
        assert sorted(idx.global_patch_rows().tolist()) == [3, 4]
        assert idx.partitions[-1].last_sorted_value == 10

    def test_ascending_tail_insert_no_patches(self):
        t, idx = indexed([1, 2, 10], NSC_ASC)
        insert(t, idx, [10, 12, 15])
        assert idx.patch_count == 0
        assert idx.partitions[-1].last_sorted_value == 15

    def test_partial_extension(self):
        t, idx = indexed([1, 2, 10], NSC_ASC)
        insert(t, idx, [12, 11, 13])
        assert idx.patch_count == 1  # one of 12/11 loses
        assert idx.partitions[-1].last_sorted_value == 13

    def test_invariant_after_random_batches(self):
        rng = np.random.default_rng(2)
        t, idx = indexed(np.arange(100), NSC_ASC)
        for _ in range(20):
            insert(t, idx, rng.integers(0, 400, size=int(rng.integers(1, 15))))
        assert idx.partitions[0].check_invariant(table_values(t))


class TestModifyNuc:
    def test_modify_to_fresh_unique_unpatches(self):
        t, idx = indexed([4, 4, 9])
        assert idx.patch_count == 2
        apply_modify(t, [idx], np.array([0]), {"value": np.array([1000])})
        assert not idx.is_patch(0)
        assert idx.is_patch(1)  # partner keeps its bit (superset of optimal)

    def test_modify_onto_existing_value_patches_both(self):
        t, idx = indexed([1, 2, 3])
        apply_modify(t, [idx], np.array([0]), {"value": np.array([3])})
        assert sorted(idx.global_patch_rows().tolist()) == [0, 2]

    def test_noop_modify_preserves_invariant(self):
        t, idx = indexed([1, 2, 2])
        apply_modify(t, [idx], np.array([1]), {"value": np.array([2])})
        assert idx.partitions[0].check_invariant(table_values(t))
        assert idx.is_patch(1) and idx.is_patch(2)

    def test_superset_of_rediscovery(self):
        rng = np.random.default_rng(3)
        t, idx = indexed(rng.integers(0, 50, size=300), NUC, partitions=2)
        for _ in range(15):
            ids = rng.choice(t.row_count, size=5, replace=False)
            apply_modify(t, [idx], ids,
                         {"value": rng.integers(0, 50, size=5)})
        vals = table_values(t)
        minimal = set(nuc_patch_rows(vals).tolist())
        maintained = set(idx.global_patch_rows().tolist())
        assert minimal <= maintained
        assert idx.partitions[0].check_invariant(
            t.partitions[0].columns["value"])


class TestModifyNsc:
    def test_modified_rows_become_patches(self):
        t, idx = indexed(np.arange(10), NSC_ASC)
        apply_modify(t, [idx], np.array([2, 5]), {"value": np.array([100, 0])})
        assert idx.patch_count == 2
        assert idx.partitions[0].check_invariant(table_values(t))

    def test_modify_patch_row_keeps_count(self):
        t, idx = indexed([5, 1, 6], NSC_ASC)  # kept run is (1, 6); row 0 patches
        assert idx.is_patch(0) and idx.patch_count == 1
        apply_modify(t, [idx], np.array([0]), {"value": np.array([77])})
        assert idx.patch_count == 1

    def test_tail_modification_recomputes_last_value(self):
        t, idx = indexed([1, 2, 9], NSC_ASC)
        assert idx.partitions[0].last_sorted_value == 9
        apply_modify(t, [idx], np.array([2]), {"value": np.array([0])})
        assert idx.partitions[0].last_sorted_value == 2
        assert idx.partitions[0].check_invariant(table_values(t))


class TestDelete:
    def test_delete_all_patches_zero_rate(self):
        t, idx = indexed([3, 3, 7])
        apply_delete(t, [idx], np.array([1, 0]))
        assert idx.patch_count == 0
        assert idx.exception_rate == 0.0

    def test_delete_non_patch_renumbers(self):
        t, idx = indexed([5, 5, 8, 9])
        apply_delete(t, [idx], np.array([2]))
        assert sorted(idx.global_patch_rows().tolist()) == [0, 1]
        assert idx.row_count == t.row_count == 3

    def test_value_may_stay_patched_after_partner_removed(self):
        t, idx = indexed([4, 4, 6])
        apply_delete(t, [idx], np.array([0]))
        assert idx.is_patch(0)  # former duplicate, now unique, still tracked
        assert idx.partitions[0].check_invariant(table_values(t))

    def test_nsc_tail_delete_recomputes(self):
        t, idx = indexed([1, 2, 9], NSC_ASC)
        apply_delete(t, [idx], np.array([2]))
        assert idx.partitions[0].last_sorted_value == 2


class TestDescendingConstraint:
    def test_insert_extends_descending_run(self):
        from patchindex.patch_index import NSC_DESC
        t, idx = indexed([9, 8, 3], NSC_DESC)
        assert idx.partitions[0].last_sorted_value == 3
        insert(t, idx, [2, 5, 1])
        # 5 cannot continue a descending run that reached 3
        assert idx.patch_count == 1
        assert idx.partitions[0].last_sorted_value == 1
        assert idx.partitions[0].check_invariant(table_values(t))


class TestNullValues:
    def test_modify_to_null_patches_row(self):
        from patchindex.patch_index import NULL_VALUE
        t, idx = indexed([1, 2, 3])
        apply_modify(t, [idx], np.array([1]),
                     {"value": np.array([NULL_VALUE])})
        assert idx.is_patch(1)
        assert idx.partitions[0].check_invariant(table_values(t))

    def test_insert_null_both_constraints(self):
        from patchindex.patch_index import NSC_ASC, NULL_VALUE
        for constraint in (NUC, NSC_ASC):
            t, idx = indexed([1, 2, 3], constraint)
            insert(t, idx, [NULL_VALUE, 10])
            assert idx.is_patch(3)
            assert not idx.is_patch(4)
            assert idx.partitions[0].check_invariant(table_values(t))


class TestEdgeStates:
    def test_insert_into_empty_table(self):
        t, idx = indexed([])
        insert(t, idx, [5, 5, 9])
        assert t.row_count == 3
        assert sorted(idx.global_patch_rows().tolist()) == [0, 1]
        assert idx.partitions[0].check_invariant(table_values(t))

    def test_nsc_insert_into_empty_table(self):
        t, idx = indexed([], NSC_ASC)
        insert(t, idx, [4, 2, 7])
        # the run starts fresh: (4, 7) extends, 2 cannot
        assert idx.patch_count == 1
        assert idx.partitions[0].last_sorted_value == 7

    def test_delete_down_to_empty(self):
        t, idx = indexed([1, 1, 2], NUC)
        apply_delete(t, [idx], np.array([2, 1, 0]))
        assert t.row_count == 0
        assert idx.row_count == 0
        assert idx.patch_count == 0
        insert(t, idx, [3, 3])
        assert idx.patch_count == 2

    def test_nuc_discovery_on_empty(self):
        t, idx = indexed([])
        assert idx.patch_count == 0
        assert idx.exception_rate == 0.0


class TestMixedWorkloads:
    @pytest.mark.parametrize("constraint", [NUC, NSC_ASC])
    @pytest.mark.parametrize("store", ["bitmap", "identifiers"])
    def test_invariant_after_every_statement(self, constraint, store):
        rng = np.random.default_rng(hash((constraint.kind.value, store)) % 2**32)
        t, idx = indexed(rng.integers(0, 200, size=400)
                         if constraint is NUC else np.arange(400),
                         constraint, partitions=2, store=store)
        next_key = 400
        for step in range(60):
            op = rng.choice(["insert", "modify", "delete"])
            n = t.row_count
            if op == "insert":
                k = int(rng.integers(1, 12))
                apply_insert(t, [idx], {
                    "key": next_key + np.arange(k),
                    "value": rng.integers(0, 500, size=k)})
                next_key += k
            elif op == "modify" and n:
                ids = rng.choice(n, size=min(n, 6), replace=False)
                apply_modify(t, [idx], ids,
                             {"value": rng.integers(0, 500, size=len(ids))})
            elif n > 10:
                ids = np.sort(rng.choice(n, size=6, replace=False))[::-1]
                apply_delete(t, [idx], ids)
            vals = table_values(t)
            offsets = t.partition_offsets()
            for p, pidx in enumerate(idx.partitions):
                assert pidx.check_invariant(vals[offsets[p]:offsets[p + 1]]), \
                    f"step {step}, op {op}, partition {p}"


class TestHotPaths:
    """Statements and the benchmark's query plans never materialize whole
    partitions: Partition.columns raises while they run."""

    @staticmethod
    def _tables():
        from patchindex.datagen import GenSpec, dimension_table, generate
        dim = dimension_table(300)
        tables = {}
        for kind in ("nuc", "nsc"):
            gen = generate(GenSpec(kind, 3000, 0.2, partitions=3, seed=5,
                                   value_domain=300 if kind == "nsc" else None))
            # block_size 8 gives 128-row chunks, so every partition has many
            t = ColumnTable.from_partitions(
                [p.columns for p in gen.partitions], block_size=8)
            ix = build_index([p.columns["value"] for p in t.partitions],
                             NUC if kind == "nuc" else NSC_ASC)
            tables[kind] = (t, ix)
        return tables, dim

    def test_columns_untouched(self, monkeypatch):
        from patchindex import column_store
        from patchindex.bench import _results_match, build_query_plans
        from patchindex.query_engine import execute
        tables, dim = self._tables()
        rng = np.random.default_rng(6)

        def forbidden(self):
            raise AssertionError("whole-partition columns read on a hot path")

        queries = {"nuc": ["distinct"], "nsc": ["sort", "join"]}
        for kind, (t, ix) in tables.items():
            naive_results = {}
            monkeypatch.setattr(column_store.Partition, "columns",
                                property(forbidden))
            for _ in range(10):
                n = t.row_count
                apply_insert(t, [ix], {"key": np.arange(n, n + 10),
                                       "value": rng.integers(0, 300, size=10)})
                # the last rows of partitions hold the sorted-run tails, so
                # these statements also move tails
                ids = np.append(rng.choice(n - 1, size=9, replace=False), n - 1)
                apply_modify(t, [ix], ids, {"value": rng.integers(0, 300, size=10)})
                last0 = int(t.partition_offsets()[1]) - 1
                ids = np.union1d(rng.choice(n, size=9, replace=False), [last0])
                apply_delete(t, [ix], ids[::-1])
            for q in queries[kind]:
                naive, rewritten = build_query_plans(q, t, ix, dim)
                naive_results[q] = (execute(naive), execute(rewritten))
            monkeypatch.undo()
            for q, (naive, rewritten) in naive_results.items():
                assert _results_match(q, "value", rewritten, naive), (kind, q)
            offsets = t.partition_offsets()
            vals = table_values(t)
            for p, pidx in enumerate(ix.partitions):
                assert pidx.check_invariant(vals[offsets[p]:offsets[p + 1]])


class KernelSpy:
    """Stands in for the loaded kernels: forwards each call and counts the
    calls by kernel name."""

    def __init__(self, lib):
        self.lib, self.calls = lib, Counter()

    def __getattr__(self, name):
        kernel = getattr(self.lib, name)

        def call(*args):
            self.calls[name] += 1
            return kernel(*args)
        return call


@pytest.mark.skipif(_native.lib is None, reason="no compiled kernels")
def test_nuc_statement_probes_once_per_partition(monkeypatch):
    rng = np.random.default_rng(9)
    t, idx = indexed(rng.integers(0, 5000, size=4000), NUC, partitions=4,
                     block_size=16)
    spy = KernelSpy(_native.lib)
    monkeypatch.setattr(_native, "lib", spy)
    for n in (1, 10, 1000):
        for statement in ("insert", "modify"):
            spy.calls.clear()
            values = rng.integers(0, 5000, size=n)
            if statement == "insert":
                _, stats = insert(t, idx, values)
            else:
                ids = rng.choice(t.row_count, size=n, replace=False)
                stats = apply_modify(t, [idx], ids, {"value": values})
            # one fused prune-and-probe call per partition; the one
            # membership pass left is nuc_patch_rows of the matched rows
            assert spy.calls["pi_probe"] == 4, (n, statement)
            assert spy.calls["pi_in_positions"] <= 1
            assert 0 < stats[0].blocks_scanned <= stats[0].blocks_total
    vals = table_values(t)
    assert np.isin(nuc_patch_rows(vals), idx.global_patch_rows()).all()


class TestPhaseTimings:
    def test_phases_are_recorded(self):
        t, idx = indexed(np.arange(400) % 150, NUC, partitions=2)
        t2, idx2 = indexed(np.arange(400), NSC_ASC, partitions=2)
        _, stats = insert(t, idx, [3, 4, 5])
        assert stats[0].storage_ms > 0
        assert stats[0].probe_ms > 0
        assert stats[0].maintain_ms > 0
        stats = apply_modify(t, [idx, idx], np.array([1, 2]),
                             {"value": np.array([7, 8])})
        assert stats[0].storage_ms > 0 and stats[1].storage_ms == 0
        total = stats[0].merge(stats[1])
        assert total.storage_ms == stats[0].storage_ms
        assert total.probe_ms == stats[0].probe_ms + stats[1].probe_ms
        stats = apply_delete(t2, [idx2], np.array([9, 3]))
        assert stats[0].storage_ms > 0 and stats[0].probe_ms == 0
        assert stats[0].maintain_ms > 0
        assert apply_delete(t2, [], np.array([1])) == []


def chunk_size_stream(seed):
    """Run a seeded stream of 1-1000-row inserts, modifies and deletes on
    a NUC and an NSC table in 3 partitions of 8-row blocks; returns, after
    every statement, each table's rows, its index's patch rows and a NUC
    probe's rowIDs and values, plus the number of chunk merges seen."""
    rng = np.random.default_rng(seed)
    n0 = 3000
    tables = {"nuc": indexed(rng.integers(0, 2000, size=n0), NUC, partitions=3,
                             block_size=8),
              "nsc": indexed(np.sort(rng.integers(0, 10**6, size=n0)), NSC_ASC,
                             partitions=3, block_size=8)}
    out, merges, next_key = [], 0, n0
    for step in range(36):
        op = ("insert", "modify", "delete")[step % 3]
        for name, (t, idx) in tables.items():
            n = t.row_count
            k = int(rng.choice([1, 10, 100, 1000]))
            if op == "insert":
                apply_insert(t, [idx], {"key": next_key + np.arange(k),
                                        "value": rng.integers(0, 2000, size=k)})
                next_key += k
            elif op == "modify":
                ids = rng.choice(n, size=k, replace=False)
                apply_modify(t, [idx], ids,
                             {"value": rng.integers(0, 2000, size=k)})
            else:
                chunks = sum(p.nchunks for p in t.partitions)
                ids = np.sort(rng.choice(n, size=k, replace=False))[::-1]
                if step % 2:  # a run of rows, which empties chunks
                    ids = int(rng.integers(0, n - k)) + np.arange(k)[::-1]
                apply_delete(t, [idx], ids)
                merges += chunks - sum(p.nchunks for p in t.partitions)
            _, cols = t.scan()
            _, ids, vals = t.probe("value", rng.integers(0, 2000, size=50))
            out.append((name, step, cols["key"].tobytes(),
                        cols["value"].tobytes(),
                        idx.global_patch_rows().tobytes(), ids.tobytes(),
                        vals.tobytes()))
    return out, merges


@pytest.mark.parametrize("backend", ["native", "numpy"])
def test_chunk_size_changes_no_result(backend, monkeypatch):
    """Chunks of 1, 4 and 16 blocks give the same table rows, patch rows
    and probe results after every statement, chunk merges included."""
    from patchindex import column_store
    if backend == "native" and _native.lib is None:
        pytest.skip("no compiled kernels")
    if backend == "numpy":
        monkeypatch.setattr(_native, "lib", None)
    runs = []
    for chunk_blocks in (1, 4, 16):
        monkeypatch.setattr(column_store, "CHUNK_BLOCKS", chunk_blocks)
        out, merges = chunk_size_stream(2025)
        assert merges > 0, chunk_blocks
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
