import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchindex import _native, sharded_bitmap
from patchindex.column_store import ColumnTable
from patchindex.patch_index import (
    CONDENSE_BELOW, NSC_ASC, NSC_DESC, NUC, NULL_VALUE, BitmapPatchStore,
    ConstraintKind, Constraint, IdentifierPatchStore, PatchIndex, SortOrder,
    build_index, discover_nsc, discover_nuc, lss_keep, lss_keep_mask,
    TableIndex, nuc_patch_rows, nsc_patch_rows,
)
from patchindex.update_pipeline import apply_insert

from oracle import lss_length_dp


@pytest.fixture
def pin_threads():
    """set_default_threads, with the process default restored afterwards."""
    saved = sharded_bitmap._default_threads_override
    yield sharded_bitmap.set_default_threads
    sharded_bitmap.set_default_threads(saved)


class TestConstraint:
    def test_order_required_for_sorted(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.NEARLY_SORTED)

    def test_no_order_for_unique(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.NEARLY_UNIQUE, SortOrder.ASCENDING)


class TestDiscoverNuc:
    def test_already_unique(self):
        idx = discover_nuc([7, 8, 9])
        assert idx.patch_count == 0
        assert idx.exception_rate == 0.0

    def test_all_occurrences_are_patches(self):
        idx = discover_nuc([5, 5, 6])
        assert sorted(np.flatnonzero(idx.patch_mask())) == [0, 1]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            vals = rng.integers(0, 40, size=rng.integers(1, 200))
            got = set(nuc_patch_rows(vals).tolist())
            want = {i for i, v in enumerate(vals)
                    if int((vals == v).sum()) > 1}
            assert got == want

    def test_null_always_patch(self):
        idx = discover_nuc([1, NULL_VALUE, 2])
        assert idx.is_patch(1)
        assert not idx.is_patch(0)

    def test_invariant_holds(self):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, 100, size=500)
        idx = discover_nuc(vals)
        assert idx.check_invariant(vals)


class TestDiscoverNsc:
    def test_fully_sorted(self):
        idx = discover_nsc([1, 2, 3, 4])
        assert idx.patch_count == 0
        assert idx.last_sorted_value == 4

    def test_short_gap_sequence(self):
        idx = discover_nsc([1, 2, 10])
        assert idx.patch_count == 0
        assert idx.last_sorted_value == 10

    def test_ties_allowed(self):
        idx = discover_nsc([1, 1, 2, 2, 2, 3])
        assert idx.patch_count == 0

    def test_descending(self):
        idx = discover_nsc([9, 7, 8, 3], order=SortOrder.DESCENDING)
        assert idx.patch_count == 1
        assert idx.last_sorted_value == 3

    def test_minimal_patch_count_vs_dp_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            vals = rng.integers(0, 50, size=n)
            patches, _, _ = nsc_patch_rows(vals)
            assert n - len(patches) == lss_length_dp(vals)

    def test_null_always_patch(self):
        idx = discover_nsc([1, NULL_VALUE, 2])
        assert idx.is_patch(1)
        assert idx.patch_count == 1

    def test_invariant_holds(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 1000, size=400)
        for order in (SortOrder.ASCENDING, SortOrder.DESCENDING):
            idx = discover_nsc(vals, order)
            assert idx.check_invariant(vals)

    def test_empty_column(self):
        idx = discover_nsc([])
        assert idx.patch_count == 0
        assert idx.last_sorted_value is None


class TestLss:
    def test_keep_mask_is_monotone(self):
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 30, size=200).tolist()
        keep = lss_keep_mask(vals)
        kept = [vals[i] for i in np.flatnonzero(keep)]
        assert all(a <= b for a, b in zip(kept, kept[1:]))

    def test_single_element(self):
        assert lss_keep_mask([5]).tolist() == [True]


class TestStores:
    def test_drop_rows_empty_noop(self):
        for cls in (BitmapPatchStore, IdentifierPatchStore):
            s = cls(10)
            s.add(np.array([3, 9]))
            s.drop_rows(np.array([], dtype=np.int64))
            assert sorted(s.patch_rows().tolist()) == [3, 9]

    def test_identifier_renumbering(self):
        s = IdentifierPatchStore(10)
        s.add(np.array([3, 9]))
        s.drop_rows(np.array([5]))
        assert s.patch_rows().tolist() == [3, 8]

    def test_identifier_drop_of_patch(self):
        s = IdentifierPatchStore(10)
        s.add(np.array([2, 5, 7]))
        s.drop_rows(np.array([5, 2]))
        assert s.patch_rows().tolist() == [5]

    def test_identifier_add_remove_match_bitmap(self):
        # unsorted batches with repeats, of rows already present or absent
        rng = np.random.default_rng(11)
        ids, bits = IdentifierPatchStore(300), BitmapPatchStore(300, 64)
        for _ in range(40):
            rows = rng.integers(0, 300, size=int(rng.integers(1, 30)))
            op = "add" if rng.random() < 0.6 else "remove"
            for s in (ids, bits):
                getattr(s, op)(rows)
            assert ids.patch_rows().tolist() == bits.patch_rows().tolist()
        assert 0 < ids.patch_count() < 300

    def test_bitmap_grow_appends_zeros(self):
        s = BitmapPatchStore(5, 64)
        s.add(np.array([4]))
        s.grow(5)
        assert s.mask(10).tolist() == [False] * 4 + [True] + [False] * 5

    def test_rebuild_oracle_for_drop(self):
        # renumbering must equal rebuilding the store from the surviving rows
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 200
            patch_rows = rng.choice(n, size=40, replace=False)
            dropped = np.sort(rng.choice(n, size=30, replace=False))[::-1]
            survivors = np.setdiff1d(np.arange(n), dropped)
            expected = np.flatnonzero(np.isin(survivors, patch_rows))
            for variant in ("bitmap", "identifiers"):
                idx = PatchIndex.from_patches(NUC, patch_rows, n, store=variant,
                                              shard_size_bits=64)
                idx.drop_rows(dropped)
                assert np.array_equal(idx.store.patch_rows(), expected)

    @pytest.mark.parametrize("store", ["bitmap", "identifiers"])
    def test_partition_rows_checked_before_any_change(self, store):
        idx = PatchIndex.from_patches(NUC, [2, 5, 8], 10, store=store)
        for method, rows, error in (("drop_rows", [1, 6], ValueError),
                                    ("drop_rows", [6, 6], ValueError),
                                    ("drop_rows", [10, 3], IndexError),
                                    ("drop_rows", [3, -1], IndexError),
                                    ("add_patches", [12], IndexError),
                                    ("add_patches", [3, -1], IndexError),
                                    ("remove_patches", [10], IndexError)):
            with pytest.raises(error):
                getattr(idx, method)(np.array(rows))
            assert idx.store.patch_rows().tolist() == [2, 5, 8], (method, rows)
            assert idx.row_count == 10
        with pytest.raises(IndexError):
            PatchIndex.from_patches(NUC, [3, 10], 10, store=store)
        idx.drop_rows(np.array([6, 1]))
        assert idx.store.patch_rows().tolist() == [1, 4, 6]
        assert idx.row_count == 8


def mask_last_non_patch(idx):
    """Reference tail lookup: unpack the whole patch mask."""
    non_patch = np.flatnonzero(~idx.patch_mask())
    return int(non_patch[-1]) if non_patch.size else None


class TestLastNonPatch:
    @pytest.mark.parametrize("variant", ["bitmap", "identifiers"])
    def test_matches_mask_after_drops(self, variant):
        rng = np.random.default_rng(11)
        condensed = set()
        for _ in range(30):
            n = int(rng.integers(1, 400))
            patches = rng.choice(n, size=int(rng.integers(0, n + 1)),
                                 replace=False)
            idx = PatchIndex.from_patches(NSC_ASC, patches, n, store=variant,
                                          shard_size_bits=64)
            assert idx.last_non_patch() == mask_last_non_patch(idx)
            dropped = np.sort(rng.choice(n, size=int(rng.integers(0, n)),
                                         replace=False))[::-1]
            idx.drop_rows(dropped)
            if variant == "bitmap" and dropped.size:
                # un-condensed while the drop leaves at least CONDENSE_BELOW
                # of the slots live: shards keep dead slots that read as
                # zero; below it the bitmap is repacked
                kept = (n - dropped.size) / n >= CONDENSE_BELOW
                assert idx.store._bits.lost_bits == (dropped.size if kept else 0)
                condensed.add(not kept)
            assert idx.last_non_patch() == mask_last_non_patch(idx)
        if variant == "bitmap":
            assert condensed == {True, False}

    @pytest.mark.parametrize("variant", ["bitmap", "identifiers"])
    def test_all_patches(self, variant):
        n = 200
        idx = PatchIndex.from_patches(NSC_ASC, np.arange(n), n, store=variant,
                                      shard_size_bits=64)
        assert idx.last_non_patch() is None
        idx.drop_rows(np.array([150, 70, 3]))
        assert idx.last_non_patch() is None
        idx.grow(5)
        assert idx.last_non_patch() == n - 3 + 4
        empty = PatchIndex.from_patches(NSC_ASC, [], 0, store=variant)
        assert empty.last_non_patch() is None
        first_only = PatchIndex.from_patches(NSC_ASC, np.arange(1, n), n,
                                             store=variant, shard_size_bits=64)
        assert first_only.last_non_patch() == 0

    @pytest.mark.parametrize("variant", ["bitmap", "identifiers"])
    def test_trailing_patch_run_crosses_shards(self, variant):
        n = 1000
        idx = PatchIndex.from_patches(NSC_ASC, np.arange(401, n), n,
                                      store=variant, shard_size_bits=128)
        assert idx.last_non_patch() == 400
        idx.drop_rows(np.arange(900, 380, -1))
        assert idx.last_non_patch() == 380


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "remove", "drop", "grow"]),
                          st.integers(0, 1_000_000)), max_size=30),
       st.integers(0, 2**31))
def test_store_variants_equivalent(ops, seed):
    rng = np.random.default_rng(seed)
    n = 64
    a = PatchIndex.from_patches(NUC, [], n, store="bitmap", shard_size_bits=64)
    b = PatchIndex.from_patches(NUC, [], n, store="identifiers")
    for name, arg in ops:
        n = a.row_count
        if name == "grow":
            extra = arg % 64
            a.grow(extra)
            b.grow(extra)
        elif n == 0:
            continue
        elif name in ("add", "remove"):
            rows = rng.choice(n, size=min(n, 1 + arg % 8), replace=False)
            getattr(a, name + "_patches")(rows)
            getattr(b, name + "_patches")(rows)
        else:
            k = min(n, 1 + arg % 8)
            rows = np.sort(rng.choice(n, size=k, replace=False))[::-1]
            a.drop_rows(rows)
            b.drop_rows(rows)
    assert a.row_count == b.row_count
    assert np.array_equal(a.patch_mask(), b.patch_mask())
    assert a.last_non_patch() == b.last_non_patch() == mask_last_non_patch(a)


class TestMemory:
    def test_identifier_formula_1e9(self):
        s = IdentifierPatchStore(10**9)
        s._ids = np.arange(10**7, dtype=np.int64)  # e = 0.01
        assert s.memory_bytes() == pytest.approx(80e6, rel=0.01)

    def test_bitmap_formula_1e9(self):
        s = BitmapPatchStore(10**9)
        assert s.memory_bytes() == pytest.approx(10**9 / 8 * 1.0039, rel=0.01)

    def test_crossover_near_one_sixty_fourth(self):
        t = 10**6
        bitmap = BitmapPatchStore(t).memory_bytes()
        below = IdentifierPatchStore(t)
        below._ids = np.arange(int(0.012 * t), dtype=np.int64)
        above = IdentifierPatchStore(t)
        above._ids = np.arange(int(0.020 * t), dtype=np.int64)
        assert below.memory_bytes() < bitmap < above.memory_bytes()


class TestTableIndex:
    def test_nuc_duplicates_global_across_partitions(self):
        parts = [np.array([1, 2, 3]), np.array([3, 4, 5])]
        idx = build_index(parts, NUC)
        assert idx.patch_count == 2
        assert idx.is_patch(2) and idx.is_patch(3)

    def test_nuc_check_invariant_is_global(self):
        """Every partition alone can hold unique non-patch values while
        the table breaks the DISTINCT rewrite: a non-patch value repeated
        in another partition, or held by a patch row elsewhere."""
        vals = np.array([1, 2, 3, 3, 4, 5])
        assert build_index([vals[:3], vals[3:]], NUC).check_invariant(vals)
        for second, patches in (([3, 4], []),         # 3 unpatched twice
                                ([3, 3, 4], [0, 1])):  # 3 patched in one
            parts = [PatchIndex.from_patches(NUC, np.array(rows, np.int64), n)
                     for rows, n in (([], 3), (patches, len(second)))]
            idx = TableIndex("value", NUC, parts)
            both = np.array([1, 2, 3] + second)
            assert parts[0].check_invariant(both[:3])
            assert parts[1].check_invariant(both[3:])
            assert not idx.check_invariant(both)

    def test_nuc_invariant_fails_on_the_closure_alone(self):
        """A patch row holds a value that an unpatched row of its own
        partition holds. Every non-patch value is unique, within and
        across partitions, so only the closure is broken: no unpatched
        row may hold a value that a patch row holds."""
        def table_index(patches):
            return TableIndex("value", NUC, [
                PatchIndex.from_patches(NUC, np.array(patches, np.int64), 3),
                PatchIndex.from_patches(NUC, np.zeros(0, np.int64), 2)])

        vals = np.array([1, 2, 2, 7, 8])
        idx = table_index([2])
        unpatched = vals[~idx.global_patch_mask()]
        assert len(np.unique(unpatched)) == len(unpatched)
        assert idx.partitions[0].check_invariant(vals[:3])
        assert idx.partitions[1].check_invariant(vals[3:])
        assert not idx.check_invariant(vals)
        # closed again: the patch row's value held by no other row, or
        # every row of the value patched
        assert idx.check_invariant(np.array([1, 2, 9, 7, 8]))
        assert table_index([1, 2]).check_invariant(vals)

    def test_nuc_partition_transparency(self):
        rng = np.random.default_rng(6)
        vals = rng.integers(0, 500, size=1000)
        split = np.array_split(vals, 4)
        multi = build_index(split, NUC)
        single = build_index([vals], NUC)
        assert np.array_equal(multi.global_patch_mask(), single.global_patch_mask())

    def test_nsc_partition_local_invariants(self, pin_threads):
        rng = np.random.default_rng(7)
        vals = np.arange(1000)
        exc = rng.choice(1000, size=100, replace=False)
        vals[exc] = rng.integers(0, 1000, size=100)
        split = np.array_split(vals, 4)
        pin_threads(2)
        idx = build_index(split, NSC_ASC)
        for p, part_vals in enumerate(split):
            assert idx.partitions[p].check_invariant(part_vals)
        # the union can never beat the single-partition optimum
        single = build_index([vals], NSC_ASC)
        assert idx.patch_count <= single.patch_count

    def test_nsc_sorted_input_transparency(self):
        vals = np.arange(1000)
        multi = build_index(np.array_split(vals, 3), NSC_ASC)
        single = build_index([vals], NSC_ASC)
        assert multi.patch_count == single.patch_count == 0

    def test_split_global_routing(self):
        idx = build_index([np.array([1, 2]), np.array([3, 4, 5])], NUC)
        groups = dict(idx.split_global(np.array([0, 1, 2, 4])))
        assert groups[0].tolist() == [0, 1]
        assert groups[1].tolist() == [0, 2]

    @pytest.mark.parametrize("store", ["bitmap", "identifiers"])
    @pytest.mark.parametrize("method", ["add_patches", "remove_patches",
                                        "drop_rows"])
    def test_out_of_range_rows_raise(self, store, method):
        vals = np.arange(200) % 150  # rows 150-199 repeat rows 0-49
        idx = build_index(np.array_split(vals, 2), NUC, store=store)
        before = idx.global_patch_rows().tolist()
        n = idx.row_count
        # descending, as drop_rows needs; valid rows before a bad one
        for rows in ([-1], [n], [150, 5, -1], [n, 150, 5]):
            with pytest.raises(IndexError):
                getattr(idx, method)(np.array(rows))
            assert idx.global_patch_rows().tolist() == before
            assert idx.row_count == n
        with pytest.raises(IndexError):
            idx.is_patch(n)

    def test_global_drop_rows(self):
        parts = [np.array([1, 2, 9]), np.array([9, 4, 5])]
        idx = build_index(parts, NUC)
        assert idx.patch_count == 2
        idx.drop_rows(np.array([3]))  # drop first row of partition 1 (a patch)
        assert idx.row_count == 5
        assert idx.patch_count == 1  # value-9 partner stays patched (superset)

    def test_stats(self):
        idx = build_index([np.array([1, 1, 2])], NUC, column="value")
        s = idx.stats()
        assert s["constraint"] == "nuc"
        assert s["patches"] == 2
        assert s["exception_rate"] == pytest.approx(2 / 3)
        assert s["store"] == "bitmap"

    def test_stats_report_bitmap_health(self):
        # 4 partitions of 1000 rows in 256-bit shards; a drop of 50 rows
        # keeps the bitmap above CONDENSE_BELOW, so its slots stay dead
        parts = np.array_split(np.arange(4000), 4)
        for store in ("bitmap", "identifiers"):
            idx = build_index(parts, NUC, store=store, shard_size_bits=256)
            assert (idx.stats()["lost_bits"], idx.stats()["utilization"]) \
                == (0, 1.0)
            idx.drop_rows(np.arange(1049, 999, -1))   # partition 1
            idx.drop_rows(np.arange(3009, 2999, -1))  # partition 3 (from 2950)
            s = idx.stats()
            if store == "bitmap":
                assert s["lost_bits"] == 60
                assert s["utilization"] == pytest.approx(950 / 1000)
            else:
                assert (s["lost_bits"], s["utilization"]) == (0, 1.0)


# --------------------------------------------------------------------------
# discovery kernels against their references

I64 = np.iinfo(np.int64)

needs_compiler = pytest.mark.skipif(_native.COMPILER is None,
                                    reason="no C compiler (cc or gcc) on PATH")


@pytest.fixture(params=["kernel", "reference"])
def backend(request, monkeypatch):
    """Run the test on the compiled kernels, then on the numpy/Python path."""
    if request.param == "kernel":
        if _native.COMPILER is None:
            pytest.skip("no C compiler (cc or gcc) on PATH")
        assert _native.lib is not None, "C kernels failed to build"
    else:
        monkeypatch.setattr(_native, "lib", None)
    return request.param


def test_drop_stream_matches_identifier_store(backend):
    """A seeded stream of patch adds, removes, drops and appends: the
    bitmap store, which condenses after a drop that leaves fewer than
    CONDENSE_BELOW of its slots live, keeps the identifier store's patch
    rows and last non-patch row after every statement."""
    rng = np.random.default_rng(41)
    n = 3000
    patches = rng.choice(n, size=600, replace=False)
    both = [PatchIndex.from_patches(NSC_ASC, patches, n, store=store,
                                    shard_size_bits=128)
            for store in ("bitmap", "identifiers")]
    bits = both[0].store._bits
    condensed = kept_dead = 0
    for _ in range(300):
        rows = both[0].row_count
        op = rng.choice(["add", "remove", "drop", "grow"], p=[0.2, 0.2, 0.4, 0.2])
        if op == "grow" or rows < 500:
            extra = int(rng.integers(1, 400))
            for idx in both:
                idx.grow(extra)
        elif op == "drop":
            picked = np.sort(rng.choice(rows, size=int(rng.integers(1, rows // 8)),
                                        replace=False))[::-1]
            for idx in both:
                idx.drop_rows(picked)
            assert bits.utilization() >= CONDENSE_BELOW
            condensed += bits.lost_bits == 0
            kept_dead += bits.lost_bits > 0
        else:
            picked = rng.choice(rows, size=int(rng.integers(1, 200)), replace=False)
            for idx in both:
                getattr(idx, f"{op}_patches")(picked)
        assert np.array_equal(both[0].store.patch_rows(),
                              both[1].store.patch_rows())
        assert both[0].last_non_patch() == both[1].last_non_patch()
    assert condensed > 3 and kept_dead > 3


def lss_reference(values, order):
    """The Python patience loop on values, negated for descending order."""
    seq = [int(v) for v in values]
    return lss_keep_mask([-v for v in seq] if order is SortOrder.DESCENDING
                         else seq)


def nuc_unique_oracle(values):
    """The former discovery: np.unique with its inverse and counts."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    return np.flatnonzero((counts[inverse] > 1) | (values == NULL_VALUE))


ORDERS = [SortOrder.ASCENDING, SortOrder.DESCENDING]


class TestLssKeep:
    CASES = [
        [],
        [7],
        [4, 4, 4, 4, 4],
        [9, 7, 5, 3, 1],
        [1, 2, 3, 4, 5],
        [2, 1, 2, 1, 2, 1, 1, 2],
        [3, 3, 1, 1, 3, 3, 1, 1],
        [5, 1, 5, 2, 5, 3, 4, 4],
        [NULL_VALUE + 1, I64.max, NULL_VALUE + 1, 0, I64.max, -1,
         NULL_VALUE + 1, I64.max],
    ]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("case", CASES)
    def test_fixed_cases(self, backend, case, order):
        vals = np.array(case, dtype=np.int64)
        keep = lss_keep(vals, order)
        assert keep.dtype == bool and len(keep) == len(vals)
        assert np.array_equal(keep, lss_reference(case, order))
        kept = vals[keep]
        # comparisons, not np.diff, which overflows at the int64 extremes
        ordered = (kept[1:] >= kept[:-1] if order is SortOrder.ASCENDING
                   else kept[1:] <= kept[:-1])
        assert ordered.all()
        signed = vals if order is SortOrder.ASCENDING else -vals
        assert int(keep.sum()) == lss_length_dp(signed)

    @needs_compiler
    def test_kernel_matches_reference_random(self):
        rng = np.random.default_rng(21)
        for domain in (2, 30, 10**4, 2**62):
            for _ in range(6):
                vals = rng.integers(-domain, domain,
                                    size=int(rng.integers(0, 3000)))
                for order in ORDERS:
                    assert np.array_equal(lss_keep(vals, order),
                                          lss_reference(vals, order))

    @needs_compiler
    def test_kernel_matches_reference_nearly_sorted(self):
        rng = np.random.default_rng(22)
        vals = np.arange(50_000, dtype=np.int64) // 3
        exc = rng.choice(len(vals), size=10_000, replace=False)
        vals[exc] = rng.integers(0, 20_000, size=exc.size)
        for order, seq in ((SortOrder.ASCENDING, vals),
                           (SortOrder.DESCENDING, vals[::-1])):
            keep = lss_keep(seq, order)
            assert np.array_equal(keep, lss_reference(seq, order))
            assert keep.sum() >= 40_000

    @needs_compiler
    def test_kernel_returns_kept_count(self):
        vals = np.array([3, 1, 2, 2, 0, 5, 6], dtype=np.int64)
        for descending, want in ((0, 5), (1, 4)):
            keep = np.ones(len(vals), dtype=bool)
            count = _native.lib.pi_lss_keep(vals.ctypes.data, len(vals),
                                            descending, keep.ctypes.data)
            assert count == want == keep.sum()


class TestNucPatchRows:
    CASES = [
        [],
        [5],
        [NULL_VALUE],
        [NULL_VALUE, NULL_VALUE, 3],
        [4, NULL_VALUE, 4, 9],
        [-3, -3, 2, -1, -1, -7],
        [6, 6, 6, 6],
        [1, 2, 3, 4],
        [I64.max, NULL_VALUE + 1, I64.max, NULL_VALUE, 0, NULL_VALUE + 1, -1],
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_fixed_cases(self, backend, case):
        got = nuc_patch_rows(case)
        assert got.dtype == np.int64
        assert np.array_equal(got, nuc_unique_oracle(case))

    def test_random_against_unique_oracle(self, backend):
        rng = np.random.default_rng(23)
        for domain in (3, 100, 10**5, 2**62):
            for _ in range(8):
                vals = rng.integers(-domain, domain,
                                    size=int(rng.integers(0, 3000)))
                vals[rng.random(len(vals)) < 0.02] = NULL_VALUE
                assert np.array_equal(nuc_patch_rows(vals),
                                      nuc_unique_oracle(vals))


class TestDiscoveryBackends:
    @pytest.mark.parametrize("store", ["bitmap", "identifiers"])
    @pytest.mark.parametrize("constraint", [NUC, NSC_ASC, NSC_DESC])
    def test_build_index_identical_on_kernel_and_reference(
            self, monkeypatch, pin_threads, constraint, store):
        if _native.lib is None:
            pytest.skip("no compiled kernels")
        rng = np.random.default_rng(24)
        vals = np.arange(6000, dtype=np.int64) // 2
        if constraint is NSC_DESC:
            vals = vals[::-1].copy()
        exc = rng.choice(len(vals), size=900, replace=False)
        vals[exc] = rng.integers(0, 3000, size=exc.size)
        vals[exc[:40]] = NULL_VALUE
        parts = np.array_split(vals, 4)

        def build(threads):
            pin_threads(threads)
            idx = build_index(parts, constraint, store=store)
            return (idx.global_patch_rows(),
                    [p.last_sorted_value for p in idx.partitions])

        rows, tails = build(threads=2)
        monkeypatch.setattr(_native, "lib", None)
        ref_rows, ref_tails = build(threads=1)
        assert rows.size > 800
        assert np.array_equal(rows, ref_rows)
        assert tails == ref_tails

    def test_descending_insert_extends_run(self, backend):
        table = ColumnTable.from_partitions(
            [{"value": np.array([9, 8, 7], dtype=np.int64)}], block_size=64)
        idx = build_index([p.columns["value"] for p in table.partitions],
                          NSC_DESC)
        apply_insert(table, [idx], {"value": np.array(
            [7, 8, 5, 6, 5, NULL_VALUE], dtype=np.int64)})
        assert idx.global_patch_rows().tolist() == [4, 5, 8]
        assert idx.partitions[-1].last_sorted_value == 5
