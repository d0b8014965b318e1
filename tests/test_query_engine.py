import numpy as np
import pytest

from patchindex.column_store import ColumnTable
from patchindex.patch_index import NSC_ASC, NUC, SortOrder, build_index
from patchindex import query_engine as qe
from patchindex.query_engine import (
    Executor, annotate, choose_plan, distinct_node, execute, explain,
    group_count_node, hash_join_node, plan_cost, result_checksum,
    rewrite_distinct, rewrite_group_count, rewrite_join, rewrite_sort,
    scan_node, select_node, sort_node, zero_branch_prune,
)


def make_table(values, partitions=2, block_size=64):
    values = np.asarray(values, dtype=np.int64)
    parts = np.array_split(values, partitions)
    keys = np.array_split(np.arange(len(values), dtype=np.int64), partitions)
    return ColumnTable.from_partitions(
        [{"key": k, "value": v} for k, v in zip(keys, parts)],
        block_size=block_size)


def indexed(values, constraint, partitions=2):
    t = make_table(values, partitions)
    idx = build_index([p.columns["value"] for p in t.partitions], constraint)
    return t, idx


def nearly_sorted(n, exceptions, seed=0):
    rng = np.random.default_rng(seed)
    v = np.arange(n, dtype=np.int64)
    if exceptions:
        pos = rng.choice(n, size=exceptions, replace=False)
        v[pos] = rng.integers(0, n, size=exceptions)
    return v


class TestExecuteBasics:
    def test_scan_all(self):
        t = make_table([3, 1, 2])
        rel = execute(scan_node(t, ["value"]))
        assert rel.columns["value"].tolist() == [3, 1, 2]
        assert rel.columns["rowid"].tolist() == [0, 1, 2]

    def test_sort_reversed_input(self):
        t = make_table(np.arange(100)[::-1].copy())
        rel = execute(sort_node(scan_node(t, ["value"]), "value"))
        assert np.array_equal(rel.columns["value"], np.arange(100))

    def test_sort_descending(self):
        t = make_table([5, 1, 9, 1])
        rel = execute(sort_node(scan_node(t, ["value"]), "value",
                                SortOrder.DESCENDING))
        assert rel.columns["value"].tolist() == [9, 5, 1, 1]

    def test_select_interval(self):
        t = make_table(np.arange(50))
        rel = execute(select_node(scan_node(t, ["value"]),
                                  ("interval", "value", 10, 19)))
        assert rel.columns["value"].tolist() == list(range(10, 20))

    def test_select_in_matches_numpy_reference(self):
        rng = np.random.default_rng(8)
        values = rng.integers(-20, 20, size=300)
        t = make_table(values)
        for keys in ([], [3], [3, 3, -7, 19, 400], list(range(-20, 20))):
            rel = execute(select_node(scan_node(t, ["key", "value"]),
                                      ("in", "value", keys)))
            want = np.flatnonzero(np.isin(values, keys))
            assert rel.columns["rowid"].tolist() == want.tolist()
            assert np.array_equal(rel.columns["value"], values[want])

    def test_distinct(self):
        t = make_table([4, 4, 2, 9, 2])
        rel = execute(distinct_node(scan_node(t, ["value"]), "value"))
        assert sorted(rel.columns["value"].tolist()) == [2, 4, 9]

    def test_group_count(self):
        t = make_table([4, 4, 2])
        rel = execute(group_count_node(scan_node(t, ["value"]), "value"))
        got = dict(zip(rel.columns["value"].tolist(), rel.columns["count"].tolist()))
        assert got == {4: 2, 2: 1}

    def test_hash_join_multiset(self):
        fact = make_table([1, 2, 2, 3])
        dim = make_table([2, 3, 4], partitions=1)
        plan = hash_join_node(scan_node(fact, ["value"]),
                              scan_node(dim, ["value", "key"]), "value", "value")
        rel = execute(plan)
        assert sorted(rel.columns["value"].tolist()) == [2, 2, 3]

    def test_hash_join_build_side_irrelevant(self):
        fact = make_table([1, 2, 2, 3, 7])
        dim = make_table([2, 3, 4], partitions=1)
        rels = []
        for side in ("left", "right"):
            plan = hash_join_node(scan_node(fact, ["value"]),
                                  scan_node(dim, ["value"]), "value", "value",
                                  build_side=side)
            rels.append(execute(plan))
        assert result_checksum(rels[0]) == result_checksum(rels[1])


class TestScanModes:
    def test_zero_exception_index(self):
        t, idx = indexed([1, 2, 3, 4], NUC)
        full = execute(scan_node(t, ["value"]))
        excl = execute(scan_node(t, ["value"], mode="exclude_patches", index=idx))
        use = execute(scan_node(t, ["value"], mode="use_patches", index=idx))
        assert np.array_equal(full.columns["rowid"], excl.columns["rowid"])
        assert use.nrows == 0

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        t, idx = indexed(rng.integers(0, 50, size=300), NUC, partitions=3)
        full = execute(scan_node(t, ["value"]))
        excl = execute(scan_node(t, ["value"], mode="exclude_patches", index=idx))
        use = execute(scan_node(t, ["value"], mode="use_patches", index=idx))
        a, b = set(excl.columns["rowid"]), set(use.columns["rowid"])
        assert a | b == set(full.columns["rowid"])
        assert not (a & b)

    def test_use_patches_cardinality_on_generated_data(self):
        from patchindex.datagen import GenSpec, generate
        spec = GenSpec("nuc", 20_000, 0.5, seed=9, partitions=3)
        t = generate(spec)
        idx = build_index([p.columns["value"] for p in t.partitions], NUC)
        use = execute(scan_node(t, ["value"], mode="use_patches", index=idx))
        assert use.nrows == spec.exception_count == 10_000

    def test_row_count_mismatch_rejected(self):
        t, idx = indexed([1, 2, 3], NUC)
        t2 = make_table([1, 2, 3, 4])
        with pytest.raises(ValueError):
            execute(scan_node(t2, ["value"], mode="use_patches", index=idx))

    def test_single_partition_scan(self):
        t = make_table(np.arange(10), partitions=2)
        rel = execute(qe.PlanNode("scan", table=t, columns=["value"], partition=1))
        assert rel.columns["rowid"].tolist() == [5, 6, 7, 8, 9]


class TestRewriteDistinct:
    @pytest.mark.parametrize("dup_rate", [0.0, 0.3, 0.9])
    def test_result_set_equality(self, dup_rate):
        rng = np.random.default_rng(int(dup_rate * 10))
        n = 2000
        dup = rng.integers(0, 50, size=int(n * dup_rate))
        uniq = 1000 + np.arange(n - len(dup))
        vals = np.concatenate([dup, uniq])
        rng.shuffle(vals)
        t, idx = indexed(vals, NUC, partitions=3)
        naive = distinct_node(scan_node(t, ["value"]), "value")
        rewritten = rewrite_distinct(naive, idx)
        assert rewritten is not None
        a = execute(naive)
        b = execute(rewritten)
        assert set(a.columns["value"]) == set(b.columns["value"])
        assert b.nrows == a.nrows  # rewritten output is duplicate-free

    def test_patch_branch_cardinality(self):
        t, idx = indexed([5, 5, 6, 7], NUC)
        plan = rewrite_distinct(distinct_node(scan_node(t, ["value"]), "value"), idx)
        annotate(plan)
        use_branch = plan.children[1]
        assert use_branch.children[0].est_rows == idx.patch_count == 2

    def test_zbp_collapses_empty_patch_branch(self):
        t, idx = indexed([1, 2, 3, 4], NUC)
        plan = rewrite_distinct(distinct_node(scan_node(t, ["value"]), "value"), idx)
        pruned = zero_branch_prune(plan)
        assert pruned.op == "project"
        assert pruned.children[0].op == "scan"

    def test_declined_on_other_column(self):
        t, idx = indexed([1, 2], NUC)
        plan = distinct_node(scan_node(t, ["key"]), "key")
        assert rewrite_distinct(plan, idx) is None

    def test_declined_on_join_in_subtree(self):
        t, idx = indexed([1, 2], NUC)
        sub = hash_join_node(scan_node(t, ["value"]), scan_node(t, ["value"]),
                             "value", "value")
        assert rewrite_distinct(distinct_node(sub, "value"), idx) is None


class TestRewriteGroupCount:
    def test_counts_match(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 40, size=500)
        t, idx = indexed(vals, NUC, partitions=2)
        naive = group_count_node(scan_node(t, ["value"]), "value")
        rewritten = rewrite_group_count(naive, idx)
        a, b = execute(naive), execute(rewritten)
        want = dict(zip(a.columns["value"].tolist(), a.columns["count"].tolist()))
        got = dict(zip(b.columns["value"].tolist(), b.columns["count"].tolist()))
        assert got == want


class TestRewriteSort:
    @pytest.mark.parametrize("exceptions", [0, 30, 300])
    def test_ordered_equality(self, exceptions):
        vals = nearly_sorted(1500, exceptions)
        t, idx = indexed(vals, NSC_ASC, partitions=3)
        naive = sort_node(scan_node(t, ["value"]), "value")
        rewritten = rewrite_sort(naive, idx)
        assert rewritten is not None
        a, b = execute(naive), execute(rewritten)
        assert np.array_equal(a.columns["value"], b.columns["value"])
        assert (result_checksum(a, ordered=False)
                == result_checksum(b, ordered=False))

    def test_e0_zbp_leaves_presorted_streams(self):
        t, idx = indexed(np.arange(900), NSC_ASC, partitions=3)
        plan = rewrite_sort(sort_node(scan_node(t, ["value"]), "value"), idx)
        pruned = zero_branch_prune(plan)
        ops = {c.op for c in pruned.children}
        assert pruned.op == "merge_sorted"
        assert ops == {"scan"}  # no sort branch left

    def test_declined_on_order_mismatch(self):
        t, idx = indexed(np.arange(10), NSC_ASC)
        plan = sort_node(scan_node(t, ["value"]), "value", SortOrder.DESCENDING)
        assert rewrite_sort(plan, idx) is None

    def test_descending_index_and_sort(self):
        from patchindex.patch_index import NSC_DESC
        rng = np.random.default_rng(21)
        vals = np.arange(2000)[::-1].copy()
        vals[rng.choice(2000, size=100, replace=False)] = \
            rng.integers(0, 2000, size=100)
        t, idx = indexed(vals, NSC_DESC, partitions=3)
        naive = sort_node(scan_node(t, ["value"]), "value",
                          SortOrder.DESCENDING)
        rewritten = rewrite_sort(naive, idx)
        assert rewritten is not None
        a, b = execute(naive), execute(rewritten)
        assert np.array_equal(a.columns["value"], b.columns["value"])
        assert np.all(np.diff(b.columns["value"]) <= 0)


class TestRewriteJoin:
    def _tables(self, exceptions, n=1200, dim_rows=40, seed=5):
        rng = np.random.default_rng(seed)
        fact_keys = np.sort(rng.integers(0, dim_rows, size=n))
        if exceptions:
            pos = rng.choice(n, size=exceptions, replace=False)
            fact_keys[pos] = rng.integers(0, dim_rows, size=exceptions)
        fact = make_table(fact_keys, partitions=3)
        idx = build_index([p.columns["value"] for p in fact.partitions], NSC_ASC)
        dim = ColumnTable.from_partitions([{
            "value": np.arange(dim_rows, dtype=np.int64),
            "payload": np.arange(dim_rows, dtype=np.int64) * 7,
        }])
        return fact, idx, dim

    @pytest.mark.parametrize("exceptions", [0, 50, 400])
    def test_multiset_equality(self, exceptions):
        fact, idx, dim = self._tables(exceptions)
        naive = hash_join_node(scan_node(fact, ["value"]),
                               scan_node(dim, ["value", "payload"]),
                               "value", "value")
        rewritten = rewrite_join(naive, idx)
        assert rewritten is not None
        a, b = execute(naive), execute(rewritten)
        assert result_checksum(a) == result_checksum(b)

    def test_e0_zbp_single_merge_join(self):
        fact, idx, dim = self._tables(0)
        naive = hash_join_node(scan_node(fact, ["value"]),
                               scan_node(dim, ["value", "payload"]),
                               "value", "value")
        pruned = zero_branch_prune(rewrite_join(naive, idx))
        assert pruned.op == "merge_join"
        a, b = execute(naive), execute(pruned)
        assert result_checksum(a) == result_checksum(b)

    def test_reuse_cache_single_evaluation(self):
        fact, idx, dim = self._tables(100)
        naive = hash_join_node(scan_node(fact, ["value"]),
                               scan_node(dim, ["value", "payload"]),
                               "value", "value")
        rewritten = rewrite_join(naive, idx)
        ex = Executor()
        ex.run(rewritten)
        assert list(ex.eval_counts.values()) == [1]

    def test_declined_on_unsorted_dimension(self):
        fact, idx, _ = self._tables(10)
        dim = ColumnTable.from_partitions([{
            "value": np.array([5, 1, 3], dtype=np.int64)}])
        naive = hash_join_node(scan_node(fact, ["value"]),
                               scan_node(dim, ["value"]), "value", "value")
        assert rewrite_join(naive, idx) is None


class TestChoosePlan:
    def test_zero_patches_always_rewritten(self):
        t, idx = indexed(np.arange(500), NUC)
        naive = distinct_node(scan_node(t, ["value"]), "value")
        rewritten = zero_branch_prune(rewrite_distinct(naive, idx))
        assert choose_plan(naive, rewritten, idx) is rewritten

    def test_high_exception_rate_prefers_naive(self):
        # nearly every row duplicated: the rewrite adds scan and union work
        vals = np.repeat(np.arange(250), 4)
        t, idx = indexed(vals, NUC)
        assert idx.exception_rate == 1.0
        naive = distinct_node(scan_node(t, ["value"]), "value")
        rewritten = rewrite_distinct(naive, idx)
        assert choose_plan(naive, rewritten, idx) is naive

    def test_cost_monotone_in_patch_count(self):
        costs = []
        for dups in (0, 100, 200, 400):
            vals = np.concatenate([np.repeat(np.arange(dups // 2), 2),
                                   10_000 + np.arange(1000 - dups)])
            t, idx = indexed(vals, NUC)
            plan = rewrite_distinct(
                distinct_node(scan_node(t, ["value"]), "value"), idx)
            annotate(plan)
            costs.append(plan_cost(plan))
        assert costs == sorted(costs)

    def test_declined_rewrite_falls_back(self):
        t, idx = indexed([1, 2], NUC)
        naive = distinct_node(scan_node(t, ["key"]), "key")
        assert choose_plan(naive, None, idx) is naive


class TestZeroBranchPrune:
    def test_nonzero_unchanged(self):
        t, idx = indexed([5, 5, 6], NUC)
        plan = rewrite_distinct(distinct_node(scan_node(t, ["value"]), "value"), idx)
        pruned = zero_branch_prune(plan)
        assert pruned.op == "union"
        assert len(pruned.children) == 2

    def test_pruned_equals_unpruned(self):
        rng = np.random.default_rng(9)
        vals = rng.integers(0, 30, size=200)
        t, idx = indexed(vals, NUC)
        plan = rewrite_distinct(distinct_node(scan_node(t, ["value"]), "value"), idx)
        a = execute(plan)
        b = execute(zero_branch_prune(plan))
        assert result_checksum(a) == result_checksum(b)


class TestExplain:
    def test_format(self):
        t, idx = indexed([5, 5, 6], NUC)
        plan = rewrite_distinct(distinct_node(scan_node(t, ["value"]), "value"), idx)
        text = explain(plan)
        lines = text.splitlines()
        assert lines[0].startswith("Union rows=")
        assert lines[1].startswith("  Project")
        assert "cost=" in lines[0]
        assert any("Scan[use_patches]" in ln for ln in lines)
