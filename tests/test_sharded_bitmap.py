import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import patchindex
from patchindex import _native
from patchindex.sharded_bitmap import ShardedBitmap

from oracle import BitOracle

needs_compiler = pytest.mark.skipif(_native.COMPILER is None,
                                    reason="no C compiler (cc or gcc) on PATH")


def logical(bm):
    return bm.to_bool_array()


def assert_matches(bm, oracle):
    got = logical(bm)
    want = oracle.bits
    assert bm.logical_len == len(want)
    assert np.array_equal(got, want)
    bm.check_invariants()


class TestConstruction:
    def test_empty(self):
        bm = ShardedBitmap(0, 1 << 14)
        assert bm.logical_len == 0
        assert list(bm.starts) == [0]
        assert bm.lost_bits == 0

    def test_boundary_crossing(self):
        bm = ShardedBitmap(65, 64)
        assert bm.num_shards == 2
        assert list(bm.starts) == [0, 64]

    def test_all_zero(self):
        bm = ShardedBitmap(1000, 256)
        assert not logical(bm).any()

    def test_regular_starts(self):
        bm = ShardedBitmap(100_000, 1 << 14)
        assert np.array_equal(bm.starts, np.arange(bm.num_shards) * (1 << 14))

    @pytest.mark.parametrize("bad", [0, 32, 63, 100, 3 << 14])
    def test_invalid_shard_size(self, bad):
        with pytest.raises(ValueError):
            ShardedBitmap(10, bad)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 4096])
    def test_from_rows_is_one_shard_with_the_rows_set(self, n):
        rows = np.flatnonzero(np.random.default_rng(n).random(n) < 0.3)
        bm = ShardedBitmap.from_rows(n, rows)
        assert bm.num_shards == 1 and bm.logical_len == n
        assert np.array_equal(np.flatnonzero(logical(bm)), rows)
        bm.check_invariants()
        for bad in ([-1], [n]):
            with pytest.raises(IndexError):
                ShardedBitmap.from_rows(n, bad)


class TestBitAccess:
    def test_fresh_all_zero(self):
        bm = ShardedBitmap(500, 64)
        assert all(bm.get(k) == 0 for k in range(500))

    def test_set_get_roundtrip(self):
        bm = ShardedBitmap(200, 64)
        bm.set(5)
        assert bm.get(5) == 1
        bm.unset(5)
        assert bm.get(5) == 0

    def test_set_zero(self):
        bm = ShardedBitmap(10, 64)
        bm.set(0)
        assert bm.get(0) == 1

    def test_bounds(self):
        bm = ShardedBitmap(10, 64)
        with pytest.raises(IndexError):
            bm.get(10)
        with pytest.raises(IndexError):
            bm.set(-1)
        with pytest.raises(IndexError):
            bm.delete(10)

    def test_get_many_matches_get(self):
        rng = np.random.default_rng(0)
        bm = ShardedBitmap(3000, 256)
        on = rng.choice(3000, size=500, replace=False)
        bm.set_many(on)
        idx = rng.integers(0, 3000, size=1000)
        assert np.array_equal(bm.get_many(idx),
                              np.array([bm.get(int(i)) for i in idx], dtype=np.uint8))

    def test_unset_many(self):
        bm = ShardedBitmap(300, 64)
        bm.set_many(np.arange(300))
        bm.unset_many(np.arange(0, 300, 2))
        assert np.array_equal(logical(bm), (np.arange(300) % 2).astype(bool))


class TestDelete:
    def test_shifts_following_bit(self):
        # bit formerly at 6 is at 5 after deleting position 5
        bm = ShardedBitmap(64, 64)
        bm.set(6)
        bm.delete(5)
        assert bm.get(5) == 1
        assert bm.get(6) == 0
        assert bm.logical_len == 63

    def test_delete_last_bit(self):
        bm = ShardedBitmap(100, 64)
        bm.set(99)
        bm.delete(99)
        assert bm.logical_len == 99
        assert not logical(bm).any()

    def test_decrements_subsequent_starts(self):
        bm = ShardedBitmap(4 * 64, 64)
        bm.delete(10)
        assert list(bm.starts) == [0, 63, 127, 191]

    def test_cross_shard_read_after_delete(self):
        bm = ShardedBitmap(200, 64)
        bm.set(64)  # first bit of shard 1
        bm.delete(0)
        assert bm.get(63) == 1  # now addressed inside shard 0's range

    def test_matches_erase_oracle(self):
        rng = np.random.default_rng(1)
        bm = ShardedBitmap(2000, 128)
        oracle = BitOracle(2000)
        for p in rng.choice(2000, size=300, replace=False):
            bm.set(int(p))
            oracle.set(int(p))
        for _ in range(500):
            p = int(rng.integers(0, bm.logical_len))
            bm.delete(p)
            oracle.delete(p)
        assert_matches(bm, oracle)

    def test_lost_bits_counter(self):
        bm = ShardedBitmap(1000, 64)
        for _ in range(5):
            bm.delete(0)
        assert bm.lost_bits == 5
        assert bm.logical_len == 995


class TestBulkDelete:
    def test_empty_noop(self):
        bm = ShardedBitmap(100, 64)
        bm.set(3)
        bm.bulk_delete([])
        assert bm.logical_len == 100
        assert bm.get(3) == 1

    def test_contract_violations(self):
        bm = ShardedBitmap(100, 64)
        with pytest.raises(ValueError):
            bm.bulk_delete([5, 9])  # ascending
        with pytest.raises(ValueError):
            bm.bulk_delete([9, 9, 5])  # duplicate
        with pytest.raises(IndexError):
            bm.bulk_delete([100])

    def test_running_sum_over_two_shards(self):
        bm = ShardedBitmap(4 * 64, 64)
        bm.bulk_delete([70, 65, 3])
        assert list(bm.starts) == [0, 63, 125, 189]

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("impl", ["scalar", "lanes"])
    def test_equals_sequential_deletes(self, threads, impl):
        rng = np.random.default_rng(7)
        n = 5000
        pattern = rng.integers(0, 2, size=n, dtype=np.uint64).astype(bool)
        a = ShardedBitmap(n, 256, shift_impl=impl)
        b = ShardedBitmap(n, 256, shift_impl=impl)
        on = np.flatnonzero(pattern)
        a.set_many(on)
        b.set_many(on)
        dele = np.sort(rng.choice(n, size=800, replace=False))[::-1]
        a.bulk_delete(dele, threads=threads)
        for p in dele:
            b.delete(int(p))
        assert np.array_equal(a.words, b.words)
        assert np.array_equal(a.starts, b.starts)
        assert a.logical_len == b.logical_len
        assert a.lost_bits == b.lost_bits

    @needs_compiler
    def test_python_fallback_matches_kernel(self, monkeypatch):
        """The compiled kernels and the numpy reference shift agree exactly."""
        # a compiler is present, so a failed build is a failure, not a skip
        assert _native.lib is not None, "C kernels failed to build"
        rng = np.random.default_rng(3)
        n = 50_000
        on = rng.choice(n, size=15_000, replace=False)
        dele = np.sort(rng.choice(n, size=3000, replace=False))[::-1]

        def run(impl):
            # 8-word shards reach the four-word step of the lane kernel, and
            # 98 of them give the worker pool enough shard groups to split
            bm = ShardedBitmap(n, 512, shift_impl=impl)
            bm.set_many(on)
            bm.bulk_delete(dele[:2500], threads=4)
            for p in dele[2500:]:
                bm.delete(int(p))
            return bm

        for impl in ("scalar", "lanes"):
            compiled = run(impl)
            with monkeypatch.context() as m:
                m.setattr(_native, "lib", None)
                reference = run(impl)
            assert np.array_equal(compiled.words, reference.words), impl
            assert np.array_equal(compiled.starts, reference.starts), impl
            assert compiled.logical_len == reference.logical_len == n - 3000
            assert compiled.lost_bits == reference.lost_bits == 3000


def kernel_and_reference(monkeypatch, make, act):
    """(compiled, numpy reference) bitmaps after act(make()) on each
    backend."""
    compiled = make()
    act(compiled)
    with monkeypatch.context() as m:
        m.setattr(_native, "lib", None)
        reference = make()
        act(reference)
    return compiled, reference


def assert_same_state(a, b):
    assert np.array_equal(a.words, b.words)
    assert np.array_equal(a.starts, b.starts)
    assert a.logical_len == b.logical_len
    assert a.lost_bits == b.lost_bits


def edge_positions(rng, bm, share):
    """Descending positions: every shard's first and last live bit, all
    bits of one shard, and a random share of the rest."""
    starts = bm.starts.tolist() + [bm.logical_len]
    live = [(a, b) for a, b in zip(starts, starts[1:]) if b > a]
    edges = [p for a, b in live for p in (a, b - 1)]
    a, b = live[int(rng.integers(0, len(live)))]
    rest = np.flatnonzero(rng.random(bm.logical_len) < share)
    pos = np.unique(np.concatenate((edges, np.arange(a, b), rest)))
    return pos[::-1].astype(np.int64)


@needs_compiler
class TestBulkDeleteKernel:
    """``pi_bulk_delete`` against the numpy reference of ``bulk_delete``."""

    @pytest.mark.parametrize("impl", ["scalar", "lanes"])
    @pytest.mark.parametrize("shard, n, threads", [
        (256, 5000, 1),       # 20 shards, one call
        (512, 50_000, 2),     # 98 shards: the pooled path
        (64, 20_000, 2),      # one-word shards, pooled
    ])
    def test_matches_reference(self, impl, shard, n, threads, monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        rng = np.random.default_rng(shard + n)
        on = np.flatnonzero(rng.random(n) < 0.4)
        first = np.sort(rng.choice(n, size=n // 10, replace=False))[::-1]

        def make():
            bm = ShardedBitmap(n, shard, shift_impl=impl)
            bm.set_many(on)
            bm.bulk_delete(first, threads=threads)  # shards lose bits
            return bm

        for share in (0.001, 0.05, 0.3):
            pos = edge_positions(rng, make(), share)
            assert (make()._pool_cuts(pos, threads) is not None) == (threads > 1)
            compiled, reference = kernel_and_reference(
                monkeypatch, make, lambda bm: bm.bulk_delete(pos, threads=threads))
            assert_same_state(compiled, reference)
            compiled.check_invariants()

    def test_pool_splits_at_shard_boundaries(self):
        bm = ShardedBitmap(64 * 100, 64)
        pos = np.arange(64 * 100)[::-3].copy()
        cuts = bm._pool_cuts(pos, 2)
        assert cuts is not None and cuts[0] == 0 and cuts[-1] == len(pos)
        shard = pos // 64
        assert all(shard[c - 1] != shard[c] for c in cuts[1:-1])
        assert bm._pool_cuts(pos, 1) is None
        assert bm._pool_cuts(pos[:63], 2) is None
        assert ShardedBitmap(64 * 63, 64)._pool_cuts(pos[-1000:], 2) is None

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bad_positions_change_nothing(self, backend, threads, monkeypatch):
        if backend == "numpy":
            monkeypatch.setattr(_native, "lib", None)
        n = 64 * 80
        bm = ShardedBitmap(n, 64)
        bm.set_many(np.arange(0, n, 3))
        bm.bulk_delete(np.arange(n - 1, 0, -50), threads=threads)
        words, starts, size = bm.words.copy(), bm.starts.copy(), bm.logical_len
        good = np.arange(size - 1, 0, -7)
        for bad, error in ((np.concatenate((good[:100], [good[0]])), ValueError),
                           (np.concatenate((good[:100], good[99:120])), ValueError),
                           (np.concatenate(([size], good)), IndexError),
                           (np.concatenate((good, [-1])), IndexError)):
            with pytest.raises(error):
                bm.bulk_delete(bad, threads=threads)
            assert np.array_equal(bm.words, words)
            assert np.array_equal(bm.starts, starts)
            assert (bm.logical_len, bm.lost_bits) == (size, len(range(n - 1, 0, -50)))

    def test_grouped_kernel_is_gone(self):
        assert not hasattr(_native.lib, "pi_delete_groups")


class TestNativeLoader:
    def test_no_compiler_warns_once_and_falls_back(self, tmp_path):
        """Without a compiler or a cached build the package warns and works."""
        code = (
            "import warnings\n"
            "import numpy as np\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    from patchindex import _native\n"
            "    from patchindex.sharded_bitmap import ShardedBitmap\n"
            "a, b = ShardedBitmap(5000, 128), ShardedBitmap(5000, 128)\n"
            "a.set_many(np.arange(0, 5000, 3)); b.set_many(np.arange(0, 5000, 3))\n"
            "dele = np.arange(4999, 0, -7)\n"
            "a.bulk_delete(dele, threads=2)\n"
            "for p in dele: b.delete(int(p))\n"
            "assert np.array_equal(a.words, b.words)\n"
            "assert np.array_equal(a.starts, b.starts)\n"
            "from patchindex.column_store import ColumnTable\n"
            "vals = np.arange(3000) % 701 - 350\n"
            "t = ColumnTable.from_partitions([{'value': vals[:1000]},\n"
            "                                 {'value': vals[1000:]}], 64)\n"
            "t.insert_rows({'value': np.array([5, -2, 9999])})\n"
            "keys = [5, -2, 9999, 12345]\n"
            "kept, ids, got = t.probe('value', keys)\n"
            "full = np.append(vals, [5, -2, 9999])\n"
            "want = np.flatnonzero(np.isin(full, keys))\n"
            "assert np.array_equal(ids, want) and len(want) == 11\n"
            "assert np.array_equal(got, full[want])\n"
            "assert 0 < kept <= t.row_count\n"
            "from patchindex.patch_index import NUC, build_index, nuc_patch_rows\n"
            "from patchindex.update_pipeline import apply_insert, apply_modify\n"
            "uv = np.arange(3000) * 2\n"
            "uv[[10, 11]] = 40\n"
            "u = ColumnTable.from_partitions([{'value': uv[:1500]},\n"
            "                                 {'value': uv[1500:]}], 64)\n"
            "ix = build_index([p.columns['value'] for p in u.partitions], NUC)\n"
            "apply_insert(u, [ix], {'value': np.array([6, 7, 7, 90001])})\n"
            "apply_modify(u, [ix], np.array([100, 2500]),\n"
            "             {'value': np.array([4000, 11])})\n"
            "patches = nuc_patch_rows(u.scan(['value'])[1]['value'])\n"
            "assert patches.tolist() == [3, 10, 11, 20, 100, 2000, 3000,\n"
            "                            3001, 3002]\n"
            "assert np.array_equal(ix.global_patch_rows(), patches)\n"
            "from patchindex.bench import build_query_plans\n"
            "from patchindex.patch_index import NSC_ASC, build_index\n"
            "from patchindex.query_engine import execute, result_checksum\n"
            "fk = np.sort(np.arange(2000) % 90)\n"
            "fk[::37] = 45\n"
            "fact = ColumnTable.from_partitions([{'value': fk[:900]},\n"
            "                                    {'value': fk[900:]}], 64)\n"
            "idx = build_index([p.columns['value'] for p in fact.partitions],\n"
            "                  NSC_ASC)\n"
            "dim = ColumnTable.from_partitions([{'value': np.arange(80),\n"
            "                                   'payload': np.arange(80) * 3}])\n"
            "naive, plan = build_query_plans('join', fact, idx, dim)\n"
            "a, b = execute(naive), execute(plan)\n"
            "assert idx.patch_count > 0 and 0 < a.nrows < 2000\n"
            "assert result_checksum(a) == result_checksum(b)\n"
            "from patchindex.patch_index import NSC_DESC, NUC, NULL_VALUE\n"
            "def rows(parts, constraint):\n"
            "    ix = build_index([np.array(p) for p in parts], constraint)\n"
            "    return (ix.global_patch_rows().tolist(),\n"
            "            [p.last_sorted_value for p in ix.partitions])\n"
            "N = NULL_VALUE\n"
            "assert rows([[1, 5, 2, 3, 9, 4], [7, 7, 0, 8]], NSC_ASC) == (\n"
            "    [1, 4, 8], [4, 8])\n"
            "assert rows([[9, N, 7, 8, 7, N, 1], [N, N]], NSC_DESC) == (\n"
            "    [1, 2, 5, 7, 8], [1, None])\n"
            "assert rows([[3, N, 4, 3, N, 5], [4, 6]], NUC) == (\n"
            "    [0, 1, 2, 3, 4, 6], [None, None])\n"
            "from patchindex.patch_index import SortOrder\n"
            "from patchindex.query_engine import rewrite_sort, scan_node, sort_node\n"
            "asc = [[0, 10, 10, 20, 95, 30, 30], [30, 30, 40, 5, 50, 50]]\n"
            "desc = [p[::-1] for p in asc[::-1]]\n"
            "for parts, c, o in ((asc, NSC_ASC, SortOrder.ASCENDING),\n"
            "                    (desc, NSC_DESC, SortOrder.DESCENDING)):\n"
            "    st = ColumnTable.from_partitions(\n"
            "        [{'value': np.array(p)} for p in parts], 64)\n"
            "    ix = build_index([p.columns['value'] for p in st.partitions], c)\n"
            "    naive = sort_node(scan_node(st, ['value']), 'value', o)\n"
            "    plan = rewrite_sort(naive, ix)\n"
            "    assert ix.patch_count == 2 and plan.op == 'merge_sorted'\n"
            "    a, b = execute(naive), execute(plan)\n"
            "    assert a.columns['value'].tolist() == sorted(\n"
            "        sum(parts, []), reverse=o is SortOrder.DESCENDING)\n"
            "    assert (result_checksum(a, ordered=True)\n"
            "            == result_checksum(b, ordered=True))\n"
            "print(_native.BACKEND, _native.lib,\n"
            "      sum(w.category is RuntimeWarning for w in caught))\n")
        src = Path(patchindex.__file__).resolve().parent.parent
        env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path),
                   PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["numpy", "None", "1"]

    def test_kernel_source_is_package_data(self):
        """A wheel without the C source would build no kernels."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as f:
            package_data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        assert _native.SOURCE.name in package_data["patchindex"]
        assert _native.SOURCE.exists()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="glibc's heap thresholds only")
    def test_freed_arrays_are_reused_after_import(self):
        """Three 8 MB arrays freed together (24 MB) stay in the heap, so a
        third round of them takes no fresh pages; glibc's own thresholds,
        raised to about 8 MB by the first round, would hand them back."""
        code = ("import resource\n"
                "import numpy as np\n"
                "from patchindex import _native\n"
                "faults = []\n"
                "for _ in range(3):\n"
                "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    arrays = [np.ones(10**6) for _ in range(3)]\n"
                "    del arrays\n"
                "    faults.append(resource.getrusage(resource.RUSAGE_SELF)"
                ".ru_minflt - f0)\n"
                "print(_native.HEAP_KEPT, faults[0], faults[2])\n")
        src = Path(patchindex.__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=str(src)),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        kept, first, third = out.stdout.split()
        assert kept == "True"
        assert int(first) > 500 and int(third) < 100, (first, third)

    def test_address_matches_ctypes_data(self):
        writable = np.arange(10)
        read_only = np.arange(10)
        read_only.flags.writeable = False
        arrays = [writable, writable[3:], read_only, np.zeros(0)]
        want = [a.ctypes.data for a in arrays]
        assert [_native.address(a) for a in arrays] == want
        ptrs = _native.pointers(arrays)
        assert ptrs.dtype == np.uintp and ptrs.tolist() == want

    def test_shift_bounds_checked(self):
        bm = ShardedBitmap(200, 64)
        for shard, off in ((-1, 0), (4, 0), (3, 8), (0, -1), (0, 64)):
            with pytest.raises(IndexError):
                bm.shift_range_left_by_one(shard, off)


class TestShift:
    def test_single_word_shift(self):
        bm = ShardedBitmap(128, 128)
        bm.set(1)
        bm.shift_range_left_by_one(0, 0)
        assert bm.get(0) == 1
        assert bm.get(1) == 0

    def test_carry_across_word_boundary(self):
        bm = ShardedBitmap(128, 128)
        bm.set(64)
        bm.shift_range_left_by_one(0, 0)
        assert bm.get(63) == 1
        assert bm.get(64) == 0

    @pytest.mark.parametrize("offset", [0, 1, 62, 63, 64, 65, 127, 200, 1023])
    def test_lanes_equal_scalar(self, offset):
        rng = np.random.default_rng(offset)
        shard_bits = 1024
        raw = rng.integers(0, 1 << 63, size=shard_bits // 64, dtype=np.uint64)
        a = ShardedBitmap(shard_bits, shard_bits, shift_impl="scalar")
        b = ShardedBitmap(shard_bits, shard_bits, shift_impl="lanes")
        a.words[:] = raw
        b.words[:] = raw
        a.shift_range_left_by_one(0, offset)
        b.shift_range_left_by_one(0, offset)
        assert np.array_equal(a.words, b.words)

    def test_randomized_full_shard(self):
        rng = np.random.default_rng(42)
        s = 1 << 14
        for _ in range(20):
            raw = rng.integers(0, 1 << 63, size=s // 64, dtype=np.uint64)
            off = int(rng.integers(0, s))
            a = ShardedBitmap(s, s, shift_impl="scalar")
            b = ShardedBitmap(s, s, shift_impl="lanes")
            a.words[:] = raw
            b.words[:] = raw
            a.shift_range_left_by_one(0, off)
            b.shift_range_left_by_one(0, off)
            assert np.array_equal(a.words, b.words)


class TestCondense:
    def test_noop_on_fresh(self):
        bm = ShardedBitmap(1000, 64)
        bm.set(123)
        before = bm.words.copy()
        bm.condense()
        assert np.array_equal(bm.words, before)

    def test_preserves_logical_content(self):
        rng = np.random.default_rng(11)
        bm = ShardedBitmap(5000, 128)
        bm.set_many(rng.choice(5000, size=1000, replace=False))
        for p in sorted(rng.choice(4000, size=300, replace=False), reverse=True):
            bm.delete(int(p))
        before = logical(bm).copy()
        bm.condense()
        assert np.array_equal(logical(bm), before)
        assert bm.lost_bits == 0
        assert np.array_equal(bm.starts, np.arange(bm.num_shards) * 128)

    def test_utilization_restored(self):
        bm = ShardedBitmap(1000, 64)
        for _ in range(100):
            bm.delete(0)
        assert bm.utilization() == pytest.approx(900 / 1000)
        bm.condense()
        assert bm.utilization() == 1.0


class TestAppend:
    def test_zero_noop(self):
        bm = ShardedBitmap(10, 64)
        bm.append(0)
        assert bm.logical_len == 10

    def test_grows_with_zeros(self):
        bm = ShardedBitmap(10, 64)
        bm.append(100)
        assert bm.logical_len == 110
        assert not logical(bm).any()
        assert list(bm.starts) == [0, 64]

    def test_append_then_set_matches_oracle(self):
        rng = np.random.default_rng(5)
        bm = ShardedBitmap(100, 64)
        oracle = BitOracle(100)
        bm.append(500)
        oracle.append(500)
        for p in rng.choice(600, size=200, replace=False):
            bm.set(int(p))
            oracle.set(int(p))
        assert_matches(bm, oracle)

    def test_append_after_deletes(self):
        bm = ShardedBitmap(200, 64)
        bm.set(150)
        for _ in range(30):
            bm.delete(0)
        bm.append(300)
        assert bm.logical_len == 470
        assert bm.get(120) == 1  # the set bit moved down 30 positions
        bm.check_invariants()

    def test_append_to_empty(self):
        bm = ShardedBitmap(0, 64)
        bm.append(70)
        assert bm.logical_len == 70
        assert list(bm.starts) == [0, 64]


class TestAccounting:
    def test_100m_bits_shard_count(self):
        bm = ShardedBitmap(100 * 10**6, 1 << 14)
        assert bm.num_shards == -(-100 * 10**6 // (1 << 14))
        assert bm.count_set() == 0

    def test_memory_footprint_1e9(self):
        bm = ShardedBitmap(10**9, 1 << 14)
        assert bm.memory_bytes() / 1e6 == pytest.approx(125.48, rel=0.01)

    def test_overhead_over_plain_bitvector(self):
        # extra bytes vs a plain bitvector: the start values, one per shard
        for shard_bits in (1 << 8, 1 << 14):
            bm = ShardedBitmap(10**6, shard_bits)
            plain = -(-10**6 // 8)
            extra = bm.memory_bytes() - plain
            expected = 64 / shard_bits * plain
            assert extra == pytest.approx(expected, abs=shard_bits // 8 + 64)

    def test_metadata_overhead_is_structural(self):
        bm = ShardedBitmap(10**6, 1 << 8)
        full_shards = bm.num_shards - 1
        assert full_shards * 8 / (full_shards * (1 << 8) // 8) == pytest.approx(0.25)

    def test_fresh_utilization(self):
        assert ShardedBitmap(12345, 64).utilization() == 1.0

    def test_count_set(self):
        bm = ShardedBitmap(1000, 64)
        bm.set_many(np.arange(0, 1000, 3))
        assert bm.count_set() == len(np.arange(0, 1000, 3))

    def test_dump_format(self):
        bm = ShardedBitmap(70, 64)
        bm.set(0)
        lines = list(bm.dump())
        assert lines[0].startswith("shard 0 start=0 bits=0000000000000001")
        assert lines[1].startswith("shard 1 start=64 bits=")


class TestDrainAndRefill:
    def test_bulk_delete_everything(self):
        bm = ShardedBitmap(500, 64)
        bm.set_many(np.arange(0, 500, 7))
        bm.bulk_delete(np.arange(500)[::-1])
        assert bm.logical_len == 0
        assert bm.count_set() == 0
        assert len(bm.to_bool_array()) == 0

    def test_refill_after_drain(self):
        bm = ShardedBitmap(300, 64)
        bm.bulk_delete(np.arange(300)[::-1])
        bm.append(128)
        assert bm.logical_len == 128
        bm.set(127)
        assert bm.get(127) == 1
        bm.check_invariants()

    def test_condense_after_drain(self):
        bm = ShardedBitmap(300, 64)
        bm.bulk_delete(np.arange(300)[::-1])
        bm.condense()
        assert list(bm.starts) == [0]
        assert bm.utilization() == 1.0


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["set", "unset", "delete", "append", "bulk", "condense"]),
              st.integers(0, 10**6)),
    min_size=1, max_size=60)


@settings(max_examples=120, deadline=None)
@given(size=st.integers(0, 4096), ops=ops_strategy, seed=st.integers(0, 2**31))
def test_random_ops_match_oracle(size, ops, seed):
    rng = np.random.default_rng(seed)
    bm = ShardedBitmap(size, 256)
    oracle = BitOracle(size)
    for name, arg in ops:
        n = bm.logical_len
        if name == "append":
            extra = arg % 512
            bm.append(extra)
            oracle.append(extra)
        elif name == "condense":
            bm.condense()
        elif n == 0:
            continue
        elif name in ("set", "unset", "delete"):
            pos = arg % n
            getattr(bm, name)(pos)
            getattr(oracle, name)(pos)
        elif name == "bulk":
            k = min(n, arg % 32)
            if k == 0:
                continue
            positions = np.sort(rng.choice(n, size=k, replace=False))[::-1]
            bm.bulk_delete(positions)
            oracle.bulk_delete(positions)
    assert_matches(bm, oracle)
