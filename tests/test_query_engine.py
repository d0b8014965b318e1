import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchindex import _native, column_store, patch_index
from patchindex.column_store import ColumnTable
from patchindex.patch_index import (NSC_ASC, NUC, NULL_VALUE, SortOrder,
                                    build_index)
from patchindex.sharded_bitmap import ShardedBitmap
from patchindex import query_engine as qe
from patchindex.query_engine import (
    Executor, annotate, distinct_node, execute, explain, hash_join_node,
    hash_join_positions, merge_join_node, merge_join_positions,
    merge_sorted_streams, project_node, result_checksum, rewrite_distinct,
    rewrite_join, rewrite_sort, scan_node, select_node, sort_node,
    stable_argsort, union_node, zero_branch_prune,
)
from patchindex.update_pipeline import apply_delete, apply_insert, apply_modify


needs_compiler = pytest.mark.skipif(_native.COMPILER is None,
                                    reason="no C compiler (cc or gcc) on PATH")


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


def _nodes(plan):
    yield plan
    for c in plan.children:
        yield from _nodes(c)


def fact_dim_join(fact, dim):
    return hash_join_node(scan_node(fact, ["value"]),
                          scan_node(dim, ["value", "payload"]), "value", "value")


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

    def test_hash_join_multiset(self):
        fact = make_table([1, 2, 2, 3])
        dim = make_table([2, 3, 4], partitions=1)
        plan = hash_join_node(scan_node(fact, ["value"]),
                              scan_node(dim, ["value", "key"]), "value", "value")
        rel = execute(plan)
        assert sorted(rel.columns["value"].tolist()) == [2, 2, 3]

    def test_hash_join_build_side_irrelevant(self, monkeypatch):
        # dimension rows the fact side never matches make the dimension
        # the larger input, so the second join builds on the fact side
        builds = []

        def spy(build_keys, probe_keys):
            builds.append(len(build_keys))
            return hash_join_positions(build_keys, probe_keys)

        monkeypatch.setattr(qe, "hash_join_positions", spy)
        fact = make_table([1, 2, 2, 3, 7])
        rels = []
        for dim_values in ([2, 3, 4], [2, 3, 4, 10, 11, 12, 13]):
            dim = make_table(dim_values, partitions=1)
            rels.append(execute(hash_join_node(
                scan_node(fact, ["value"]), scan_node(dim, ["value"]),
                "value", "value")))
        assert builds == [3, 5]
        assert rels[0].nrows == 3
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

    def test_unknown_mode_rejected(self):
        t, idx = indexed([1, 2, 3], NUC)
        with pytest.raises(ValueError, match="unknown scan mode"):
            execute(scan_node(t, ["value"], mode="patches", index=idx))

    def test_single_partition_scan(self):
        t = make_table(np.arange(10), partitions=2)
        rel = execute(qe.PlanNode("scan", table=t, columns=["value"], partition=1))
        assert rel.columns["rowid"].tolist() == [5, 6, 7, 8, 9]

    def test_partition_outside_table_rejected(self):
        t, idx = indexed([1, 1, 2, 3, 4, 5, 6, 7, 8, 9], NUC)
        assert 0 < idx.patch_count < 10
        for mode in ("all", "exclude_patches", "use_patches"):
            for partition in (-1, 2, 5, 9):
                with pytest.raises(ValueError, match="outside"):
                    execute(scan_node(t, ["value"], mode,
                                      None if mode == "all" else idx, partition))

    def test_explain_and_annotate_reject_partition_outside_table(self):
        t, idx = indexed([1, 1, 2, 3, 4, 5, 6, 7, 8, 9], NUC)
        assert len(t.partitions) == 2
        for partition in (-1, 9):
            for show in (explain, annotate):
                with pytest.raises(ValueError, match="outside"):
                    show(scan_node(t, ["value"], "exclude_patches", idx, partition))
        # the estimates of partitions inside the table are unchanged
        counts = [p.patch_count for p in idx.partitions]
        for partition in (0, 1):
            node = annotate(scan_node(t, ["value"], "exclude_patches", idx,
                                      partition))
            assert node.est_rows == 5 - counts[partition]
        assert annotate(scan_node(t, ["value"], "use_patches", idx)).est_rows \
            == idx.patch_count


def split_scan_matches_mask(t, idx, columns=("key", "value")):
    """Every patch-split scan equals the full scan filtered by the mask."""
    flags_all = idx.global_patch_mask()
    for partition in [None, *range(len(t.partitions))]:
        full = execute(scan_node(t, list(columns), partition=partition))
        flags = flags_all[full.columns["rowid"]]
        for mode, keep in (("exclude_patches", ~flags), ("use_patches", flags)):
            got = execute(scan_node(t, list(columns), mode=mode, index=idx,
                                    partition=partition))
            assert list(got.columns) == ["rowid", *columns]
            for c, a in got.columns.items():
                assert a.dtype == full.columns[c].dtype, (mode, partition, c)
                assert np.array_equal(a, full.columns[c][keep]), (mode, partition, c)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 400), nparts=st.integers(1, 3),
       store=st.sampled_from(["bitmap", "identifiers"]),
       deletes=st.integers(0, 60), delta=st.integers(0, 20),
       seed=st.integers(0, 2**31))
def test_patch_split_scan_equals_filtered_full_scan(n, nparts, store, deletes,
                                                    delta, seed):
    rng = np.random.default_rng(seed)
    t = make_table(rng.integers(0, 60, size=n), partitions=nparts,
                   block_size=16)
    idx = build_index([p.columns["value"] for p in t.partitions], NUC,
                      store=store, shard_size_bits=64)
    deletes = min(deletes, t.row_count)
    if deletes:
        rows = np.sort(rng.choice(t.row_count, size=deletes, replace=False))[::-1]
        t.delete_rows(rows)
        idx.drop_rows(rows)
    if delta:
        start = t.row_count
        t.insert_rows({"key": np.arange(delta),
                       "value": rng.integers(0, 60, size=delta)})
        idx.grow_last(delta)
        idx.add_patches(start + np.flatnonzero(rng.random(delta) < 0.5))
    split_scan_matches_mask(t, idx)


def test_patch_split_scan_with_lost_bits(monkeypatch):
    # a repack threshold of 0.75 lets the bitmaps keep their lost bits
    monkeypatch.setattr(patch_index, "CONDENSE_BELOW", 0.75)
    rng = np.random.default_rng(4)
    t = make_table(rng.integers(0, 300, size=3000), partitions=3, block_size=64)
    idx = build_index([p.columns["value"] for p in t.partitions], NUC,
                      store="bitmap", shard_size_bits=128)
    rows = np.sort(rng.choice(3000, size=400, replace=False))[::-1]
    t.delete_rows(rows)
    idx.drop_rows(rows)
    t.insert_rows({"key": np.arange(30), "value": rng.integers(0, 300, size=30)})
    idx.grow_last(30)
    idx.add_patches(np.arange(t.row_count - 30, t.row_count, 3))
    assert all(p.store._bits.lost_bits > 0 for p in idx.partitions)
    assert 0 < idx.patch_count < t.row_count
    split_scan_matches_mask(t, idx)


@pytest.mark.parametrize("store", ["bitmap", "identifiers"])
def test_rewrites_read_partition_rows_without_routing(store, monkeypatch):
    # the patch flows hand each store's bits to the scans, so no rowID is
    # routed and no bitmap is unpacked to rows; small shards and deletes
    # leave the bitmaps lost bits under a repack threshold of 0.75
    monkeypatch.setattr(patch_index, "CONDENSE_BELOW", 0.75)
    rng = np.random.default_rng(11)
    n, nparts = 3000, 3
    values = {"nuc": rng.integers(0, 2000, size=n), "nsc": nearly_sorted(n, 300)}
    t = ColumnTable.from_partitions(
        [{"key": k, "nuc": a, "nsc": b} for k, a, b in zip(
            np.array_split(np.arange(n), nparts), np.array_split(values["nuc"], nparts),
            np.array_split(values["nsc"], nparts))], block_size=64)
    idx = {c: build_index([p.columns[c] for p in t.partitions], constraint, c,
                          store=store, shard_size_bits=128)
           for c, constraint in (("nuc", NUC), ("nsc", NSC_ASC))}
    rows = np.sort(rng.choice(n, size=400, replace=False))[::-1]
    t.delete_rows(rows)
    for i in idx.values():
        i.drop_rows(rows)
    if store == "bitmap":
        assert all(p.store._bits.lost_bits > 0 for p in idx["nsc"].partitions)
    dim = ColumnTable.from_partitions([{
        "value": np.arange(n, dtype=np.int64),
        "payload": np.arange(n, dtype=np.int64) * 7}])

    def no_routing(*args):
        raise AssertionError("a rewritten plan routed rowIDs")

    def no_unpack(*args):
        raise AssertionError("a rewritten plan unpacked patch bits")

    monkeypatch.setattr(column_store, "route_rows", no_routing)
    monkeypatch.setattr(ShardedBitmap, "to_bool_array", no_unpack)
    if _native.lib is not None:  # the numpy merge join calls flatnonzero
        monkeypatch.setattr(np, "flatnonzero", no_unpack)
    distinct = distinct_node(scan_node(t, ["nuc"]), "nuc")
    a, b = execute(distinct), execute(rewrite_distinct(distinct, idx["nuc"]))
    assert sorted(b.columns["nuc"].tolist()) == a.columns["nuc"].tolist()
    sort = sort_node(scan_node(t, ["key", "nsc"]), "nsc")
    a, b = execute(sort), execute(rewrite_sort(sort, idx["nsc"]))
    assert np.array_equal(a.columns["nsc"], b.columns["nsc"])
    join = hash_join_node(scan_node(t, ["nsc"]), scan_node(dim, ["value", "payload"]),
                          "nsc", "value")
    a, b = execute(join), execute(rewrite_join(join, idx["nsc"]))
    assert result_checksum(a) == result_checksum(b)


def merge_join_oracle(lk, rk):
    pairs = [(i, j) for i, v in enumerate(lk) for j, w in enumerate(rk) if v == w]
    return (np.array([i for i, _ in pairs], dtype=np.int64),
            np.array([j for _, j in pairs], dtype=np.int64))


class TestMergeJoinPositions:
    I64 = np.iinfo(np.int64)
    CASES = [
        ([], []),
        ([], [1, 2]),
        ([1, 2], []),
        ([1, 1, 2], [5, 6]),                                # no matches
        ([3, 3, 3, 4, 4, 9], [3, 4, 9]),                    # duplicate left keys
        ([-7, -7, -2, 0, 5, 11, 40], [-7, -3, 0, 5, 10]),   # outside the range
        ([I64.min, -1, 0, I64.max], [I64.min, 0, I64.max]),
        ([0, 1, 2, 3], [0, 1, 2, 3]),                       # every row matches
        (list(range(-50, 150, 3)) * 1, list(range(0, 100, 2))),
    ]

    def _check(self, fn, lk, rk):
        lk, rk = np.array(lk, dtype=np.int64), np.array(rk, dtype=np.int64)
        left_idx, right_idx = fn(lk, rk)
        want_l, want_r = merge_join_oracle(lk, rk)
        if left_idx is None:
            left_idx = np.arange(len(lk))
        else:
            assert len(left_idx) < len(lk)
        assert np.array_equal(left_idx, want_l), (lk, rk)
        assert np.array_equal(right_idx, want_r), (lk, rk)

    @pytest.mark.parametrize("lk,rk", CASES)
    def test_reference_matches_oracle(self, lk, rk):
        self._check(qe._merge_join_reference, lk, rk)

    @needs_compiler
    @pytest.mark.parametrize("lk,rk", CASES)
    def test_kernel_matches_oracle(self, lk, rk):
        assert _native.lib is not None, "C kernels failed to build"
        self._check(merge_join_positions, lk, rk)

    @needs_compiler
    def test_kernel_matches_reference_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lk = np.sort(rng.integers(-200, 200, size=int(rng.integers(0, 3000))))
            rk = np.unique(rng.integers(-150, 250, size=int(rng.integers(0, 300))))
            got = merge_join_positions(lk, rk)
            want = qe._merge_join_reference(lk, rk)
            assert (got[0] is None) == (want[0] is None)
            if got[0] is not None:
                assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("fn", [merge_join_positions,
                                    qe._merge_join_reference])
    def test_unsorted_inputs_raise(self, fn):
        ok = np.array([1, 2, 2, 5], dtype=np.int64)
        bad_left = np.array([1, 3, 2, 5], dtype=np.int64)
        with pytest.raises(ValueError, match="sorted left"):
            fn(bad_left, ok[[0, 1, 3]])
        # the violation sits past the last right key, after the merge ends
        with pytest.raises(ValueError, match="sorted left"):
            fn(np.array([1, 2, 9, 8], dtype=np.int64), np.array([1, 2]))
        for bad_right in ([1, 3, 2], [1, 2, 2], [4, 4]):
            with pytest.raises(ValueError, match="sorted unique right"):
                fn(ok, np.array(bad_right, dtype=np.int64))
        with pytest.raises(ValueError, match="sorted unique right"):
            fn(np.zeros(0, dtype=np.int64), np.array([2, 1], dtype=np.int64))

    def test_non_int64_keys_use_reference(self):
        lk = np.array([1, 2, 2, 4], dtype=np.int32)
        rk = np.array([2, 4], dtype=np.int32)
        left_idx, right_idx = merge_join_positions(lk, rk)
        assert left_idx.tolist() == [1, 2, 3]
        assert right_idx.tolist() == [0, 0, 1]

    def test_operator_passes_matched_left_through(self):
        fact = make_table([1, 1, 2, 3], partitions=1)
        dim = ColumnTable.from_partitions([{
            "value": np.array([1, 2, 3], dtype=np.int64),
            "payload": np.array([10, 20, 30], dtype=np.int64)}])
        rel = execute(merge_join_node(scan_node(fact, ["value"]),
                                      scan_node(dim, ["value", "payload"]),
                                      "value", "value"))
        assert rel.columns["payload"].tolist() == [10, 10, 20, 30]
        assert rel.columns["rowid"].tolist() == [0, 1, 2, 3]
        assert rel.columns["value_r"].tolist() == [1, 1, 2, 3]


def same_bucket_keys(nkeys, seed=0):
    """nkeys distinct int64 keys that the kernel's multiplicative hash puts
    into one slot of the table it sizes for nkeys build rows."""
    log2 = max(1, int(2 * nkeys - 1).bit_length())
    rng = np.random.default_rng(seed)
    cand = np.unique(rng.integers(-2**62, 2**62, size=400 * (1 << log2)))
    slot = (cand.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(64 - log2)
    keys = cand[slot == np.bincount(slot.astype(np.int64)).argmax()]
    assert len(keys) >= nkeys
    return keys[:nkeys]


@pytest.fixture(params=["kernel", "reference"])
def join_backend(request, monkeypatch):
    """Run a test on the compiled kernels and on the numpy references."""
    if request.param == "kernel":
        if _native.COMPILER is None:
            pytest.skip("no C compiler (cc or gcc) on PATH")
        assert _native.lib is not None, "C kernels failed to build"
    else:
        monkeypatch.setattr(_native, "lib", None)
    return request.param


class TestHashJoinPositions:
    I64 = np.iinfo(np.int64)
    BUCKET = same_bucket_keys(40).tolist()
    CASES = [  # (build, probe)
        ([], []),
        ([], [1, 2]),
        ([1, 2], []),
        ([5, 6], [1, 1, 2]),                                # no matches
        ([5], [5, 3, 5]),                                   # one build row
        ([3, 3, 1, 3, 2, 2], [3, 2, 3, 7, 2]),              # 10 pairs > 5 probes
        ([2, 3, 4], [1, 2, 2, 3, 7, 3]),                    # many-to-one
        ([-7, 4, -7, 0, 9], [0, -7, -3, -7, 9]),
        ([I64.min, -1, 0, I64.max, NULL_VALUE, I64.max],
         [I64.max, NULL_VALUE, 1, I64.min, 0, -1]),
        ([k << 52 for k in range(-2048, 2048, 3)],
         [k << 52 for k in range(-2048, 2048)]),
        (BUCKET[:32] + BUCKET[:8], BUCKET[::-1] + [1, 2]),  # 40 rows, one slot
    ]

    def _check(self, build, probe):
        bk, pk = np.array(build, dtype=np.int64), np.array(probe, dtype=np.int64)
        got = hash_join_positions(bk, pk)
        want_p, want_b = merge_join_oracle(pk, bk)
        assert np.array_equal(got[0], want_p), (bk, pk)
        assert np.array_equal(got[1], want_b), (bk, pk)

    @pytest.mark.parametrize("build,probe", CASES)
    def test_matches_oracle(self, join_backend, build, probe):
        self._check(build, probe)

    @needs_compiler
    def test_kernel_matches_reference_random(self):
        rng = np.random.default_rng(12)
        for domain in (3, 40, 1000, 2**62):
            for _ in range(8):
                bk = rng.integers(-domain, domain, size=int(rng.integers(0, 700)))
                pk = rng.integers(-domain, domain, size=int(rng.integers(0, 2000)))
                got = hash_join_positions(bk, pk)
                want = qe._hash_join_reference(bk, pk)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    @needs_compiler
    def test_kernel_writes_at_most_cap_pairs(self):
        bk = np.array([3, 3, 1, 3, 2, 2], dtype=np.int64)
        pk = np.array([3, 2, 3, 7, 2], dtype=np.int64)
        want_p, want_b = qe._hash_join_reference(bk, pk)
        assert len(want_p) == 10
        for cap in (0, 3, 10):
            pidx = np.full(cap + 4, -9, dtype=np.int64)
            bidx = np.full(cap + 4, -9, dtype=np.int64)
            total = _native.lib.pi_hash_join(bk.ctypes.data, len(bk),
                                             pk.ctypes.data, len(pk),
                                             pidx.ctypes.data,
                                             bidx.ctypes.data, cap)
            assert total == 10
            assert np.array_equal(pidx[:cap], want_p[:cap])
            assert np.array_equal(bidx[:cap], want_b[:cap])
            assert (pidx[cap:] == -9).all() and (bidx[cap:] == -9).all()

    @pytest.mark.parametrize("dtype", [np.int32, "S3"])
    def test_non_int64_keys_use_reference(self, monkeypatch, dtype):
        calls = []
        reference = qe._hash_join_reference

        def spy(bk, pk):
            calls.append(1)
            return reference(bk, pk)

        monkeypatch.setattr(qe, "_hash_join_reference", spy)
        bk = np.array([4, 2, 4], dtype=np.int64).astype(dtype)
        pk = np.array([2, 4, 5], dtype=np.int64).astype(dtype)
        probe_idx, build_idx = hash_join_positions(bk, pk)
        assert calls == [1]
        assert probe_idx.tolist() == [0, 1, 1]
        assert build_idx.tolist() == [1, 0, 2]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_operator_rows_match_reference_in_order(self, monkeypatch, side):
        # the join builds on the smaller input: the 500-row fact side
        # against 600 dimension rows, the dimension against 60
        rng = np.random.default_rng(6)
        fact = make_table(rng.integers(0, 30, size=500), partitions=2)
        dim_rows = 600 if side == "left" else 60
        dim = ColumnTable.from_partitions([{
            "value": rng.integers(0, 40, size=dim_rows),
            "payload": np.arange(dim_rows, dtype=np.int64)}])
        plan = hash_join_node(scan_node(fact, ["value"]),
                              scan_node(dim, ["value", "payload"]),
                              "value", "value")
        got = execute(plan)
        monkeypatch.setattr(_native, "lib", None)
        want = execute(plan)
        assert got.nrows > 500
        assert list(got.columns) == list(want.columns)
        for c in want.columns:
            assert np.array_equal(got.columns[c], want.columns[c]), c

    def test_empty_probe_side(self, join_backend):
        # the empty fact side is the smaller input, so the join builds on
        # it; the result still carries both inputs' columns
        fact = make_table([1, 2, 2, 3])
        dim = ColumnTable.from_partitions([{
            "value": np.array([1, 2, 3], dtype=np.int64),
            "payload": np.array([10, 20, 30], dtype=np.int64)}])
        plan = hash_join_node(select_node(scan_node(fact, ["value"]),
                                          ("==", "value", 99)),
                              scan_node(dim, ["value", "payload"]),
                              "value", "value")
        rel = execute(plan)
        assert rel.nrows == 0
        assert sorted(rel.columns) == ["payload", "rowid", "rowid_r", "value",
                                       "value_r"]

    def test_rewrite_with_empty_patch_flow_building_right(self, join_backend):
        # 130 patches, all below 5, against a 40-row dimension: the
        # select leaves the hash branch an empty patch flow
        values = np.repeat(np.arange(40, dtype=np.int64), 30)
        rng = np.random.default_rng(2)
        values[rng.choice(np.arange(300, 1200), size=130, replace=False)] = \
            rng.integers(0, 5, size=130)
        fact = make_table(values, partitions=3)
        idx = build_index([p.columns["value"] for p in fact.partitions], NSC_ASC)
        dim = ColumnTable.from_partitions([{
            "value": np.arange(40, dtype=np.int64),
            "payload": np.arange(40, dtype=np.int64) * 7}])
        naive = hash_join_node(select_node(scan_node(fact, ["value"]),
                                           ("interval", "value", 35, 39)),
                               scan_node(dim, ["value", "payload"]),
                               "value", "value")
        rewritten = rewrite_join(naive, idx)
        assert idx.patch_count == 130
        a, b = execute(naive), execute(rewritten)
        assert a.nrows == int(((values >= 35) & (values <= 39)).sum()) > 0
        assert result_checksum(a) == result_checksum(b)


@pytest.fixture
def argsort_calls(monkeypatch):
    """Counts the calls of np.argsort made while a test runs."""
    calls = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestStableArgsort:
    I64 = np.iinfo(np.int64)

    def _check(self, values, order):
        values = np.asarray(values)
        want = np.argsort(qe._sort_key(values, order), kind="stable")
        got = stable_argsort(values, order)
        assert got.tolist() == want.tolist(), (values, order)

    @pytest.mark.parametrize("order", list(SortOrder))
    @pytest.mark.parametrize("values", [
        [], [7], [3] * 50, [NULL_VALUE, 5, NULL_VALUE, -3, 5, NULL_VALUE],
        [-2, 0, -2, 1, 0, -5], list(range(100, 0, -3)) * 3,
        [-4, 0, 0, 3, 9], [9, 3, 0, 0, -4],  # already in one order
    ])
    def test_matches_stable_argsort(self, values, order):
        self._check(np.array(values, dtype=np.int64), order)

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_random(self, order):
        rng = np.random.default_rng(11)
        # sizes around powers of two, where the position bits step up
        for n in (2, 3, 255, 256, 257, 1024, 1025, 5000):
            for hi in (2, 50, 2**40):
                self._check(rng.integers(-hi, hi, size=n), order)

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_extremes_fall_back(self, order, argsort_calls):
        values = np.array([self.I64.max, 0, self.I64.min, self.I64.max,
                           self.I64.min], dtype=np.int64)
        self._check(values, order)
        assert len(argsort_calls) == 2  # the oracle and the fallback

    @pytest.mark.parametrize("order", list(SortOrder))
    @pytest.mark.parametrize("span_bits", [62, 63])
    def test_span_at_64_packed_bits(self, order, span_bits, argsort_calls):
        # four rows take two position bits: a 62-bit span fills the 64
        # packed bits exactly, a 63-bit span does not fit
        base = -(1 << 61)
        values = np.array([base + (1 << span_bits) - 1, base, base + 7,
                           base], dtype=np.int64)
        self._check(values, order)
        # the oracle, plus the fallback when the span does not fit
        assert len(argsort_calls) == (1 if span_bits == 62 else 2)

    def test_bytes_keys(self):
        values = np.array([b"b", b"a", b"c", b"a", b"b"], dtype="S1")
        self._check(values, SortOrder.ASCENDING)
        # bytes have no bitwise-not sort key, on either path
        with pytest.raises(TypeError):
            qe._sort_key(values, SortOrder.DESCENDING)
        with pytest.raises(TypeError):
            stable_argsort(values, SortOrder.DESCENDING)

    def test_non_int64_and_strided_keys(self):
        self._check(np.array([3, 1, 3, 2, 1], dtype=np.int32),
                    SortOrder.DESCENDING)
        self._check(np.arange(40, dtype=np.int64)[::-3] % 7,
                    SortOrder.ASCENDING)

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_sort_operator_uses_it(self, order):
        vals = nearly_sorted(600, 90, seed=4) % 50
        t = make_table(vals, partitions=3)
        rel = execute(sort_node(scan_node(t, ["value"]), "value", order))
        want = np.argsort(qe._sort_key(vals, order), kind="stable")
        assert rel.columns["rowid"].tolist() == want.tolist()


def merge_streams(keys):
    """Relations over the given key lists, with an int64 row number, an
    S8 copy and an int32 copy of the key as payload columns."""
    rels, row = [], 0
    for k in keys:
        k = np.array(k, dtype=np.int64)
        rels.append(qe.Relation({
            "row": np.arange(row, row + len(k), dtype=np.int64),
            "value": k, "tag": k.astype("S8"), "small": k.astype(np.int32)}))
        row += len(k)
    return rels


def assert_same_relation(a, b):
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        assert a.columns[c].dtype == b.columns[c].dtype, c
        assert a.columns[c].tolist() == b.columns[c].tolist(), c


class NoKernels:
    """Stands in for the kernel library; any use of a kernel fails."""

    def __getattr__(self, name):
        raise AssertionError(f"kernel {name} called")


class TestMergeSortedStreams:
    CASES = [  # (stream keys, order)
        ([[1, 2, 2, 5], [2, 2, 3], [0, 2, 9]], SortOrder.ASCENDING),
        ([[5, 5, 5], [5, 5], [5]], SortOrder.ASCENDING),
        ([[], [3, 4], [], [1, 4, 4], []], SortOrder.ASCENDING),
        ([[], [], []], SortOrder.ASCENDING),
        ([[4, 6, 8]], SortOrder.ASCENDING),
        ([[0, 5000], [566, 600, 4999], [1, 2, 3]], SortOrder.ASCENDING),
        ([[9, 4, 4, 1], [4, 4, 0], [10, 4]], SortOrder.DESCENDING),
        ([[NULL_VALUE, NULL_VALUE, 2], [NULL_VALUE, 1]], SortOrder.ASCENDING),
        ([[2, NULL_VALUE], [1, NULL_VALUE, NULL_VALUE]], SortOrder.DESCENDING),
    ]

    @staticmethod
    def _oracle(rels, order):
        cols = {c: np.concatenate([r.columns[c] for r in rels])
                for c in rels[0].columns}
        idx = np.argsort(qe._sort_key(cols["value"], order), kind="stable")
        return qe.Relation({c: a[idx] for c, a in cols.items()})

    def _check(self, keys, order):
        rels = merge_streams(keys)
        got = merge_sorted_streams(rels, "value", order)
        assert_same_relation(got, qe._merge_sorted_reference(rels, "value",
                                                             order))
        assert_same_relation(got, self._oracle(rels, order))

    @pytest.mark.parametrize("keys,order", CASES)
    def test_matches_reference(self, keys, order, join_backend):
        self._check(keys, order)

    # 200 stream pointers fill 1600 bytes, more than numpy keeps in its
    # small-block cache, so a pointer array freed before a kernel reads it
    # goes back to the allocator and is overwritten
    @pytest.mark.parametrize("streams", [70, 200])
    @pytest.mark.parametrize("order", list(SortOrder))
    def test_many_streams(self, streams, order, join_backend):
        rng = np.random.default_rng(streams)
        keys = []
        for t in range(streams):
            k = np.sort(rng.integers(0, 40, size=int(rng.integers(0, 30))))
            keys.append(k if order is SortOrder.ASCENDING else k[::-1])
        for _ in range(5):
            self._check(keys, order)

    @pytest.mark.parametrize("keys,order", [
        ([[1, 2, 3], [4, 2]], SortOrder.ASCENDING),
        ([[5, 6, 7, 1], [0, 1]], SortOrder.ASCENDING),  # after the merge
        ([[1, 3, 2], [], [0, 9]], SortOrder.ASCENDING),
        ([[3, 2, 1], [1, 2]], SortOrder.DESCENDING),
        ([[2, 1]], SortOrder.ASCENDING),                # one stream
    ])
    def test_unsorted_stream_raises(self, keys, order, join_backend):
        rels = merge_streams(keys)
        with pytest.raises(ValueError, match="merge needs sorted streams"):
            merge_sorted_streams(rels, "value", order)

    @needs_compiler
    def test_kernel_path_does_not_sort_or_concatenate(self, monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        rels = merge_streams([[1, 4, 4, 9], [0, 4, 7], [2, 3]])
        want = self._oracle(rels, SortOrder.ASCENDING)

        def banned(*args, **kwargs):
            raise AssertionError("re-sorted or concatenated")

        for name in ("argsort", "sort", "concatenate", "lexsort"):
            monkeypatch.setattr(np, name, banned)
        got = merge_sorted_streams(rels, "value")
        monkeypatch.undo()
        assert_same_relation(got, want)

    def test_object_columns_never_reach_the_kernels(self, monkeypatch):
        rels = merge_streams([[1, 3], [2, 3]])
        for r, names in zip(rels, (["a", "b"], ["c", "d"])):
            r.columns["name"] = np.array(names, dtype=object)
        want = self._oracle(rels, SortOrder.ASCENDING)
        monkeypatch.setattr(_native, "lib", NoKernels())
        assert_same_relation(merge_sorted_streams(rels, "value"), want)

    def test_mixed_dtypes_and_non_int64_keys_use_reference(self, monkeypatch):
        rels = merge_streams([[1, 3], [2, 3]])
        rels[1].columns["small"] = rels[1].columns["small"].astype(np.int16)
        want = self._oracle(rels, SortOrder.ASCENDING)
        monkeypatch.setattr(_native, "lib", NoKernels())
        assert_same_relation(merge_sorted_streams(rels, "value"), want)
        rels = merge_streams([[1, 3], [2, 3]])
        for r in rels:
            r.columns["value"] = r.columns["value"].astype(np.int32)
        got = merge_sorted_streams(rels, "value")
        assert got.columns["row"].tolist() == [0, 2, 1, 3]

    def test_kernel_allocation_failure_raises_memory_error(self, monkeypatch):
        class FailingKernels:
            @staticmethod
            def pi_merge_runs(*args):
                return -2

        monkeypatch.setattr(_native, "lib", FailingKernels())
        with pytest.raises(MemoryError):
            merge_sorted_streams(merge_streams([[1], [2]]), "value")

    @needs_compiler
    def test_one_nonempty_stream_passes_through(self):
        rels = merge_streams([[], [1, 2, 2], []])
        assert merge_sorted_streams(rels, "value") is rels[1]


@needs_compiler
@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.integers(-30, 30), max_size=120),
       cuts=st.lists(st.integers(0, 12), max_size=120),
       descending=st.booleans())
def test_merge_kernel_equals_reference_over_stream_splits(values, cuts,
                                                          descending):
    """Deal a sorted key list to up to 13 streams (each stays sorted) and
    merge them back on both paths."""
    order = SortOrder.DESCENDING if descending else SortOrder.ASCENDING
    keys = sorted(values, reverse=descending)
    streams = [[] for _ in range(13)]
    for i, v in enumerate(keys):
        streams[cuts[i] if i < len(cuts) else 0].append(v)
    rels = merge_streams(streams)
    got = merge_sorted_streams(rels, "value", order)
    assert got.columns["value"].tolist() == keys
    assert_same_relation(got, qe._merge_sorted_reference(rels, "value", order))


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


    @pytest.mark.parametrize("order", list(SortOrder))
    def test_kernel_and_reference_keep_one_tie_order(self, order,
                                                     monkeypatch):
        from patchindex.patch_index import NSC_DESC
        # few distinct values: ties across partitions and with the patches
        vals = nearly_sorted(1800, 200, seed=9) // 40
        if order is SortOrder.DESCENDING:
            vals = vals[::-1].copy()
        t, idx = indexed(vals, NSC_ASC if order is SortOrder.ASCENDING
                         else NSC_DESC, partitions=4)
        plan = rewrite_sort(sort_node(scan_node(t, ["value"]), "value",
                                      order), idx)
        assert idx.patch_count > 0
        kernel = execute(plan)
        monkeypatch.setattr(_native, "lib", None)
        reference = execute(plan)
        assert_same_relation(kernel, reference)
        assert np.array_equal(kernel.columns["value"],
                              execute(sort_node(scan_node(t, ["value"]),
                                                "value", order)).columns["value"])


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
        # e=0 prunes the hash join: one merge join per partition remains,
        # a lone one in place of the union
        fact, idx, dim = self._tables(0)
        naive = hash_join_node(scan_node(fact, ["value"]),
                               scan_node(dim, ["value", "payload"]),
                               "value", "value")
        pruned = zero_branch_prune(rewrite_join(naive, idx))
        assert pruned.op == "union"
        assert [c.op for c in pruned.children] == ["merge_join"] * 3
        a, b = execute(naive), execute(pruned)
        assert result_checksum(a) == result_checksum(b)
        one = make_table(np.arange(200) // 5, partitions=1)
        one_idx = build_index([p.columns["value"] for p in one.partitions],
                              NSC_ASC)
        assert one_idx.patch_count == 0
        naive = fact_dim_join(one, dim)
        pruned = zero_branch_prune(rewrite_join(naive, one_idx))
        assert pruned.op == "merge_join"
        assert result_checksum(execute(pruned)) == result_checksum(execute(naive))

    def test_dimension_scanned_once(self, monkeypatch):
        fact, idx, dim = self._tables(100)
        naive = fact_dim_join(fact, dim)
        rewritten = rewrite_join(naive, idx)
        real_scan = dim.scan_into
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(dim, "scan_into", counted)
        rel = Executor().run(rewritten)
        assert len(calls) == 1
        monkeypatch.undo()
        assert result_checksum(rel) == result_checksum(execute(naive))

    def test_rewrite_shares_dimension_node(self):
        # one merge join per partition, unmerged, and the hash join last,
        # all over the naive plan's own dimension node
        fact, idx, dim = self._tables(100)
        naive = fact_dim_join(fact, dim)
        joins = rewrite_join(naive, idx).children
        assert [j.op for j in joins] == ["merge_join"] * 3 + ["hash_join"]
        assert all(j.children[1] is naive.children[1] for j in joins)
        assert [j.children[0].partition for j in joins[:3]] == [0, 1, 2]
        assert all(j.children[0].op == "scan" for j in joins)

    @pytest.mark.parametrize("exceptions", [0, 100])
    def test_pruned_join_keeps_one_dimension_node(self, exceptions):
        fact, idx, dim = self._tables(exceptions)
        naive = fact_dim_join(fact, dim)
        pruned = zero_branch_prune(rewrite_join(naive, idx))
        dims = {id(n) for n in _nodes(pruned) if n.table is dim}
        assert dims == {id(naive.children[1])}
        assert result_checksum(execute(pruned)) == result_checksum(execute(naive))

    def test_pruning_a_stream_keeps_the_dimension_shared(self):
        # an empty middle partition leaves an empty patch-free stream: its
        # merge join is pruned, and the union keeps the other joins as
        # they are, not copies of them
        fact = ColumnTable.from_partitions([
            {"key": np.arange(k, k + len(v), dtype=np.int64),
             "value": np.array(v, dtype=np.int64)}
            for k, v in ((0, list(range(40))), (40, []), (40, [3, 1, 2, 30]))])
        idx = build_index([p.columns["value"] for p in fact.partitions], NSC_ASC)
        dim = ColumnTable.from_partitions([{
            "value": np.arange(40, dtype=np.int64),
            "payload": np.arange(40, dtype=np.int64) * 7}])
        naive = fact_dim_join(fact, dim)
        rewritten = rewrite_join(naive, idx)
        pruned = zero_branch_prune(rewritten)
        assert len(rewritten.children) == 4
        assert len(pruned.children) == 3
        assert pruned is not rewritten
        kept = [rewritten.children[i] for i in (0, 2, 3)]
        assert all(a is b for a, b in zip(pruned.children, kept))
        assert all(j.children[1] is naive.children[1] for j in pruned.children)
        assert result_checksum(execute(pruned)) == result_checksum(execute(naive))

    def test_declined_on_unsorted_dimension(self):
        fact, idx, _ = self._tables(10)
        dim = ColumnTable.from_partitions([{
            "value": np.array([5, 1, 3], dtype=np.int64)}])
        naive = hash_join_node(scan_node(fact, ["value"]),
                               scan_node(dim, ["value"]), "value", "value")
        assert rewrite_join(naive, idx) is None


@settings(max_examples=60, deadline=None)
@given(nparts=st.integers(1, 5), empty=st.integers(0, 4),
       patched=st.integers(0, 4), e=st.sampled_from([0.0, 0.01, 0.5]),
       store=st.sampled_from(["bitmap", "identifiers"]),
       statements=st.lists(st.tuples(st.sampled_from(["insert", "modify",
                                                      "delete"]),
                                     st.integers(1, 30)), max_size=6),
       seed=st.integers(0, 2**31))
def test_join_rewrite_matches_naive(nparts, empty, patched, e, store,
                                    statements, seed):
    """The rewrite's rows equal the naive join's as a multiset, pruned or
    not: one partition empty, one fully patched, fact keys that the
    dimension lacks, after a random update stream."""
    rng = np.random.default_rng(seed)
    domain = 60
    sizes = rng.integers(1, 120, size=nparts)
    if nparts > 1:
        sizes[empty % (nparts - 1)] = 0  # not the last, which takes inserts
    parts = []
    for n in sizes:
        v = np.sort(rng.integers(0, domain, size=n))
        wild = rng.random(n) < e
        v[wild] = rng.integers(0, domain, size=int(wild.sum()))
        parts.append({"key": np.arange(n, dtype=np.int64), "value": v})
    fact = ColumnTable.from_partitions(parts, block_size=8)
    idx = build_index([p.columns["value"] for p in fact.partitions], NSC_ASC,
                      store=store, shard_size_bits=64)
    for op, size in statements:
        size = min(size, fact.row_count) if op != "insert" else size
        if op == "insert":
            values = np.sort(rng.integers(0, domain, size=size))
            apply_insert(fact, [idx], {"key": np.arange(size), "value": values})
        elif size:
            rows = np.sort(rng.choice(fact.row_count, size=size, replace=False))
            if op == "modify":
                apply_modify(fact, [idx], rows,
                             {"value": rng.integers(0, domain, size=size)})
            else:
                apply_delete(fact, [idx], rows[::-1])
    # every row of one partition modified: all of them become patches
    target = patched % nparts
    offsets = fact.partition_offsets()
    rows = np.arange(offsets[target], offsets[target + 1])
    apply_modify(fact, [idx], rows, {"value": rng.integers(0, domain, size=len(rows))})
    assert idx.partitions[target].patch_count == len(rows)
    # the dimension holds every other key, so some fact keys find no match
    keys = np.arange(0, domain, 2, dtype=np.int64)
    dim = ColumnTable.from_partitions([{"value": keys, "payload": keys * 7}])
    naive = fact_dim_join(fact, dim)
    rewritten = rewrite_join(naive, idx)
    assert rewritten is not None
    want = result_checksum(execute(naive))
    assert result_checksum(execute(rewritten)) == want
    assert result_checksum(execute(zero_branch_prune(rewritten))) == want


def four_partition_tables(store):
    """A NUC and an NSC fact table, each of four partitions: one with some
    patches, one empty, one all patches and one without patches, at block
    size 8 (32-row chunks), with their indexes and a dimension that holds
    every other NSC value, so that some fact keys find no match."""
    rng = np.random.default_rng(27)
    domain = 400
    nsc = [np.sort(rng.integers(0, domain, size=300)), np.zeros(0, np.int64),
           rng.integers(0, domain, size=200), np.arange(0, domain, 3)]
    wild = rng.choice(300, size=30, replace=False)
    nsc[0][wild] = rng.integers(0, domain, size=30)
    nuc = [rng.integers(0, 2000, size=300), np.zeros(0, np.int64),
           rng.integers(0, 150, size=200), 5000 + np.arange(133)]
    out = {}
    for name, parts, constraint in (("nuc", nuc, NUC), ("nsc", nsc, NSC_ASC)):
        first = np.cumsum([0] + [len(v) for v in parts])
        table = ColumnTable.from_partitions(
            [{"key": np.arange(lo, lo + len(v), dtype=np.int64),
              "value": v.astype(np.int64)} for lo, v in zip(first, parts)],
            block_size=8)
        index = build_index([p.columns["value"] for p in table.partitions],
                            constraint, store=store, shard_size_bits=64)
        index.partitions[2].add_patches(np.arange(len(parts[2])))
        out[name] = table, index
    keys = np.arange(0, domain, 2, dtype=np.int64)
    dim = ColumnTable.from_partitions([{"value": keys, "payload": keys * 7}])
    return out, dim


def four_partition_plans(store):
    """query -> (naive, rewritten) plan over ``four_partition_tables``."""
    tables, dim = four_partition_tables(store)
    (nuc, nuc_idx), (nsc, nsc_idx) = tables["nuc"], tables["nsc"]
    distinct = distinct_node(scan_node(nuc, ["key", "value"]), "value")
    sort = sort_node(scan_node(nsc, ["key", "value"]), "value")
    join = hash_join_node(scan_node(nsc, ["key", "value"]),
                          scan_node(dim, ["value", "payload"]), "value", "value")
    return {"distinct": (distinct, rewrite_distinct(distinct, nuc_idx)),
            "sort": (sort, rewrite_sort(sort, nsc_idx)),
            "join": (join, rewrite_join(join, nsc_idx))}


# result_checksum of each query's naive and rewritten plan over
# four_partition_tables, ordered for sort (its rewrite keeps another tie
# order), as the executor before destination passing computed them: the
# same for both stores and both backends, pruned or not
PINNED = {"distinct": ("fbfe0193c5c8f0a7f47d8e8ce326ee7a",) * 2,
          "sort": ("35187eca98faca5c016f9f02ae4fe497",
                   "7494a16880830901bc5267ece1ce9168"),
          "join": ("e819d30d23f45c801fa5194f30dba75a",) * 2}


class TestDestinationPassing:
    @pytest.mark.parametrize("store", ["bitmap", "identifiers"])
    def test_rewrites_match_naive_and_pinned_checksums(self, store,
                                                       join_backend):
        for query, (naive, rewritten) in four_partition_plans(store).items():
            ordered = query == "sort"
            want_naive, want = PINNED[query]
            base = execute(naive)
            assert result_checksum(base, ordered) == want_naive, query
            pruned = zero_branch_prune(rewritten)
            if query != "distinct":  # the empty and all-patch partitions'
                # patch-free streams go
                assert len(pruned.children) == len(rewritten.children) - 2
            for plan in (rewritten, pruned):
                rel = execute(plan)
                assert result_checksum(rel, ordered) == want, query
                assert result_checksum(rel) == result_checksum(base), query

    def test_union_children_write_from_where_the_last_stopped(self,
                                                                join_backend):
        # the merge joins find fewer rows than their fact sides' bounds, so
        # each compacts its slice and the next child starts at the true
        # offset: the union is the concatenation of its children
        tables, _ = four_partition_tables("bitmap")
        join = four_partition_plans("bitmap")["join"][1]
        fact_rows = tables["nsc"][0].row_count
        children = [execute(c) for c in join.children]
        fact_scan = annotate(join.children[0].children[0])
        assert children[0].nrows < fact_scan.est_rows
        rel = execute(join)
        assert rel.nrows == sum(c.nrows for c in children) < fact_rows
        for col, a in rel.columns.items():
            assert np.array_equal(a, np.concatenate([c.columns[col]
                                                     for c in children])), col

    def test_scans_write_only_the_columns_read(self, monkeypatch):
        # the distinct rewrite reads one column of both flows, so neither
        # scan writes rowIDs or the unread key; a join at the root reads
        # every column its scans give
        writes = []
        real = ColumnTable.scan_into

        def recorded(self, plan, ids, cols):
            writes.append((self, ids is not None, sorted(cols)))
            return real(self, plan, ids, cols)

        plans = four_partition_plans("bitmap")
        monkeypatch.setattr(ColumnTable, "scan_into", recorded)
        execute(plans["distinct"][1])
        assert [w[1:] for w in writes] == [(False, ["value"])] * 2
        writes.clear()
        naive, rewritten = plans["join"]
        dim = naive.children[1].table
        for plan in (naive, rewritten, zero_branch_prune(rewritten)):
            writes.clear()
            rel = execute(plan)
            assert sorted(rel.columns) == ["key", "payload", "rowid",
                                           "rowid_r", "value", "value_r"]
            assert all(ids for _, ids, _ in writes)
            # the shared dimension node runs once
            assert [w[0] for w in writes].count(dim) == 1

    def test_union_casts_a_child_of_another_dtype(self):
        narrow = ColumnTable.from_partitions(
            [{"value": np.array([5, 6], np.int32)}])
        wide = ColumnTable.from_partitions(
            [{"value": np.array([2**40], np.int64)}])
        rel = execute(union_node(
            [project_node(scan_node(t, ["value"]), ["value"])
             for t in (narrow, wide)]))
        assert rel.columns["value"].dtype == np.int64
        assert rel.columns["value"].tolist() == [5, 6, 2**40]


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

    @pytest.mark.parametrize("query", ["sort", "join"])
    def test_input_left_unchanged(self, query):
        if query == "sort":
            t, idx = indexed(np.arange(900), NSC_ASC, partitions=3)
            plan = rewrite_sort(sort_node(scan_node(t, ["value"]), "value"), idx)
        else:
            fact, idx, dim = TestRewriteJoin()._tables(0)
            plan = rewrite_join(fact_dim_join(fact, dim), idx)
        assert idx.patch_count == 0
        before = explain(plan)
        pruned = zero_branch_prune(plan)
        assert explain(plan) == before
        assert explain(pruned) != before


class TestExplain:
    def test_format(self):
        t, idx = indexed([5, 5, 6], NUC)
        plan = rewrite_distinct(distinct_node(scan_node(t, ["value"]), "value"), idx)
        text = explain(plan)
        lines = text.splitlines()
        assert lines[0].startswith("Union rows=")
        assert lines[1].startswith("  Project")
        assert all(" rows=" in ln for ln in lines)
        assert "cost=" not in text
        assert any("Scan[use_patches]" in ln for ln in lines)
        assert any("SortDistinct(value)" in ln for ln in lines)
        assert "HashAggregate" not in text

    def test_shared_node_under_each_parent(self):
        fact, idx, dim = TestRewriteJoin()._tables(50)
        plan = rewrite_join(fact_dim_join(fact, dim), idx)
        lines = explain(plan).splitlines()
        shared = [ln for ln in lines if ln.endswith(" shared")]
        assert len(shared) == 4  # three merge joins and the hash join
        assert all(ln.startswith("    Scan[all] rows=40 ") for ln in shared)
