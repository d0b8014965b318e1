import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchindex import _native
from patchindex.column_store import (CHUNK_BLOCKS, MAGIC, ColumnTable,
                                     Partition, _block_minmax, filter_add,
                                     filter_hash, in_positions, select,
                                     sort_unique)
from patchindex.datagen import GenSpec, generate_to_file
from patchindex.patch_index import NUC, NULL_VALUE, PatchIndex, TableIndex
from patchindex.sharded_bitmap import ShardedBitmap

needs_compiler = pytest.mark.skipif(_native.COMPILER is None,
                                    reason="no C compiler (cc or gcc) on PATH")


def make_table(values, partitions=2, block_size=64):
    parts = np.array_split(np.asarray(values, dtype=np.int64), partitions)
    keys = np.array_split(np.arange(len(values), dtype=np.int64), partitions)
    return ColumnTable.from_partitions(
        [{"key": k, "value": v} for k, v in zip(keys, parts)],
        block_size=block_size)


def block_rowids(t, blocks):
    """Global rowIDs of the rows of per-partition block lists."""
    offsets = t.partition_offsets()
    out = []
    for p, b, base in zip(t.partitions, blocks, offsets.tolist()):
        for k, j in zip(*np.divmod(np.asarray(b, dtype=np.int64), CHUNK_BLOCKS)):
            start = int(p.ends[k] - p.counts[k])
            out.append(base + start + np.arange(j * p.block_size, min(
                (j + 1) * p.block_size, int(p.counts[k]))))
    return np.concatenate(out + [np.zeros(0, np.int64)])


def summarize(t, columns=None):
    """Build the block summaries (zone maps and filters) of a table's or
    a partition's int64 columns, or of the given ones, as each column's
    first probe does; returns t."""
    for p in getattr(t, "partitions", [t]):
        for c in p.int_columns() if columns is None else columns:
            p.filter_words(c)
    return t


def assert_chunk_summaries(p, columns=None):
    """Every chunk's zone maps of the int64 columns, or of the given ones,
    equal the summaries of its live rows."""
    for c in p.int_columns() if columns is None else columns:
        for k in range(p.nchunks):
            got = p.chunk_minmax(c, k)
            want = _block_minmax(p.chunk(c, k), p.block_size)
            assert np.array_equal(got[0], want[0]), (c, k)
            assert np.array_equal(got[1], want[1]), (c, k)


class TestScan:
    def test_empty_table(self):
        t = make_table([], partitions=1)
        ids, cols = t.scan()
        assert len(ids) == 0
        assert len(cols["value"]) == 0

    def test_full_scan_cardinality(self):
        t = make_table(np.arange(1000), partitions=3)
        ids, cols = t.scan(["value"])
        assert len(ids) == t.row_count == 1000
        assert np.array_equal(ids, np.arange(1000))
        assert np.array_equal(cols["value"], np.arange(1000))

    def test_rowids_dense_across_partitions(self):
        t = make_table(np.arange(100), partitions=4)
        ids, _ = t.scan()
        assert np.array_equal(ids, np.arange(100))

    def test_range_scan_equals_filtered_full_scan(self):
        # a probe of every key of a range reads the rows whose value lies in it
        rng = np.random.default_rng(0)
        t = make_table(rng.integers(0, 50, size=500), partitions=3, block_size=4)
        full_ids, full_cols = t.scan(["value"])
        for _ in range(20):
            lo, hi = np.sort(rng.integers(-5, 55, size=2)).tolist()
            _, ids, values = t.probe("value", np.arange(lo, hi))
            want = (full_cols["value"] >= lo) & (full_cols["value"] < hi)
            assert np.array_equal(ids, full_ids[want])
            assert np.array_equal(values, full_cols["value"][want])

    def test_unknown_column(self):
        t = make_table([1, 2])
        with pytest.raises(KeyError):
            t.scan(["nope"])


class TestFilteredScan:
    """The semijoin probe (``ColumnTable.probe``) against filtered full
    scans."""

    def test_equals_filtered_full_scan(self):
        rng = np.random.default_rng(4)
        t = make_table(rng.integers(-30, 30, size=700), partitions=3,
                       block_size=16)
        t.insert_rows({"key": np.arange(700, 740),
                       "value": rng.integers(-30, 30, size=40)})
        full_ids, full_cols = t.scan()
        for _ in range(20):
            keys = rng.integers(-35, 35, size=int(rng.integers(0, 8)))
            count, ids, values = t.probe("value", keys)
            want = np.isin(full_cols["value"], keys)
            assert np.array_equal(ids, full_ids[want])
            assert np.array_equal(values, full_cols["value"][want])
            assert ids.dtype == values.dtype == np.int64
            assert count <= t.total_blocks()

    def test_filter_column_need_not_be_scanned(self):
        # the probe returns rowIDs, so another column is a gather away
        t = make_table(np.arange(100) % 10, partitions=2)
        _, ids, values = t.probe("value", [3])
        assert ids.tolist() == list(range(3, 100, 10))
        assert values.tolist() == [3] * 10
        assert t.gather(ids, "key").tolist() == list(range(3, 100, 10))

    def test_bad_filter_rejected(self):
        t = make_table([1, 2])
        # scans take patch-split filters only; value sets go to probe
        for where in (("interval", "value", 0, 1), ("in", "value", [1])):
            with pytest.raises(ValueError, match="unknown scan filter"):
                t.scan(["value"], where=where)
        with pytest.raises(KeyError):
            t.probe("nope", [1])
        pad = ColumnTable.from_partitions(
            [{"pad": np.array([b"a", b"b"], dtype="S2")}])
        with pytest.raises(ValueError, match="int64 column"):
            pad.probe("pad", [1])


def isin_reference(values, keys):
    return np.flatnonzero(np.isin(values, keys))


class TestInPositions:
    @needs_compiler
    def test_kernel_matches_numpy_reference(self):
        # a compiler is present, so a failed build is a failure, not a skip
        assert _native.lib is not None, "C kernels failed to build"
        rng = np.random.default_rng(5)
        col = rng.integers(-1000, 1000, size=20_000)
        col[::97] = NULL_VALUE
        cases = [
            (col, []),                                      # empty keys
            (col[:0], [1, 2]),                              # empty segment
            (col, [NULL_VALUE, -5, 7]),
            (col, rng.integers(-1000, 0, size=50)),         # negatives only
            (col, [np.iinfo(np.int64).max, NULL_VALUE + 1]),
            (col, rng.integers(-10**6, 10**6, size=10**5)), # past the filter
        ]
        for values, keys in cases:
            keys = np.unique(np.asarray(keys, dtype=np.int64))
            got = in_positions(values, keys)
            assert got.dtype == np.int64
            assert np.array_equal(got, isin_reference(values, keys))

    def test_non_int64_uses_reference(self):
        values = np.array([b"a", b"b", b"a"], dtype="S4")
        keys = np.unique([b"a"])
        assert in_positions(values, keys).tolist() == [0, 2]
        ints = np.array([1, 2, 3], dtype=np.int64)
        assert in_positions(ints, np.unique([2.0, 2.5])).tolist() == [1]


class TestPrune:
    def test_outside_domain_empty(self):
        t = make_table(np.arange(1000))
        count, ids, values = t.probe("value", [5000, 6000, -1])
        assert count == 0
        assert len(ids) == len(values) == 0

    def test_full_domain_all_blocks(self):
        t = make_table(np.arange(1000))
        count, ids, values = t.probe("value", np.arange(1000))
        # 500 rows a partition: 64-row blocks 0-7 of one chunk each
        assert count == t.total_blocks() == 16
        assert np.array_equal(ids, np.arange(1000))
        assert np.array_equal(values, np.arange(1000))

    def test_superset_property_random(self):
        rng = np.random.default_rng(1)
        t = make_table(rng.integers(0, 1000, size=2000), partitions=3)
        full_ids, full_cols = t.scan(["value"])
        for _ in range(20):
            values = rng.integers(0, 1000, size=int(rng.integers(0, 30)))
            _, ids, _ = t.probe("value", values)
            assert np.array_equal(ids, full_ids[np.isin(full_cols["value"], values)])

    def test_value_set_predicate(self):
        t = make_table(np.arange(0, 10000, 10), partitions=2, block_size=32)
        count, ids, values = t.probe("value", np.array([500, 7770]))
        assert values.tolist() == [500, 7770]
        assert ids.tolist() == [50, 777]
        assert count == 2  # of 32 blocks: the zone maps do not overlap

    def test_block_counting(self):
        t = make_table(np.arange(1000), partitions=1, block_size=100)
        assert t.total_blocks() == 10
        count, ids, _ = t.probe("value", [0, 150])
        assert count == 2
        assert ids.tolist() == [0, 150]


class TestUpdates:
    def test_insert_assigns_tail_rowids(self):
        t = make_table(np.arange(100))
        ids = t.insert_rows({"key": np.arange(100, 110),
                             "value": np.arange(10)})
        assert ids.tolist() == list(range(100, 110))
        assert t.row_count == 110

    def test_delta_union_persisted_equals_full(self):
        t = make_table(np.arange(50))
        t.insert_rows({"key": np.arange(50, 60), "value": np.arange(10)})
        ids, cols = t.scan()
        assert np.array_equal(ids, np.arange(60))
        assert np.array_equal(cols["key"], np.arange(60))
        assert np.array_equal(cols["value"], np.append(np.arange(50), np.arange(10)))

    def test_delete_empty_noop(self):
        t = make_table(np.arange(10))
        t.delete_rows(np.array([], dtype=np.int64))
        assert t.row_count == 10

    def test_delete_compacts(self):
        t = make_table(np.arange(10), partitions=2)
        t.delete_rows(np.array([7, 2]))
        ids, cols = t.scan(["value"])
        assert np.array_equal(ids, np.arange(8))
        assert cols["value"].tolist() == [0, 1, 3, 4, 5, 6, 8, 9]

    def test_modify_updates_minmax(self):
        t = make_table(np.arange(1000), partitions=1, block_size=100)
        t.modify_rows(np.array([5]), {"value": np.array([10_000])})
        count, ids, _ = t.probe("value", [10_000])
        assert count == 1
        assert ids.tolist() == [5]

    @pytest.mark.parametrize("block_size", [16, 24])
    def test_insert_keeps_block_summaries(self, block_size):
        # 16 divides the initial 400 rows and 24 does not; the inserts move
        # the row count on and off block edges
        rng = np.random.default_rng(block_size)
        t = summarize(make_table(rng.integers(0, 1000, size=400), partitions=1,
                                 block_size=block_size))
        for k in (7, 1, 9, block_size, 3 * block_size + 2, 0, 18):
            if k:
                t.insert_rows({"key": np.arange(k),
                               "value": rng.integers(-500, 2000, size=k)})
            assert_chunk_summaries(t.partitions[0])

    def test_interleaved_updates_match_array_oracle(self):
        rng = np.random.default_rng(2)
        t = make_table(np.arange(200), partitions=3)
        model = np.arange(200, dtype=np.int64)
        next_key = 200
        for _ in range(40):
            op = rng.choice(["insert", "modify", "delete"])
            n = len(model)
            if op == "insert":
                k = int(rng.integers(1, 10))
                vals = rng.integers(0, 1000, size=k)
                t.insert_rows({"key": np.arange(next_key, next_key + k),
                               "value": vals})
                next_key += k
                model = np.concatenate([model, vals])
            elif op == "modify" and n:
                ids = rng.choice(n, size=min(n, 5), replace=False)
                vals = rng.integers(0, 1000, size=len(ids))
                t.modify_rows(ids, {"value": vals})
                model[ids] = vals
            elif n:
                ids = np.sort(rng.choice(n, size=min(n, 5), replace=False))[::-1]
                t.delete_rows(ids)
                model = np.delete(model, ids)
        _, cols = t.scan(["value"])
        assert np.array_equal(cols["value"], model)


    @pytest.mark.parametrize("block_size", [16, 24])
    def test_modify_block_summaries_match_full_rebuild(self, block_size):
        # 1000 rows: 16 divides them, 24 leaves a partial last block
        rng = np.random.default_rng(block_size)
        t = summarize(make_table(rng.integers(0, 10**6, size=3000),
                                 partitions=3, block_size=block_size))
        last = t.partition_offsets()[1] - 1
        batches = [np.array([last]), np.array([0, last]),
                   rng.choice(3000, size=1000, replace=False)]
        batches += [rng.choice(3000, size=k, replace=False)
                    for k in (1, 5, 40, 200)]
        for ids in batches:
            vals = rng.integers(-10**6, 2 * 10**6, size=len(ids))
            t.modify_rows(np.sort(ids), {"value": vals[np.argsort(ids)]})
            for p in t.partitions:
                assert_chunk_summaries(p)

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_modify_stream_keeps_exact_zone_maps(self, backend, monkeypatch):
        """Modifies widen the zone maps and re-scan only the blocks whose
        min or max they overwrote, which 8-row blocks make common. Rows
        given twice, unsorted rows and uneven chunks with partial blocks
        included."""
        use_backend(backend, monkeypatch)
        rng = np.random.default_rng(25)
        t = summarize(make_table(rng.integers(0, 10**6, size=3000),
                                 partitions=3, block_size=8))
        t.delete_rows(np.flatnonzero(rng.random(3000) < 0.05)[::-1])
        # a row given twice keeps its second value: the first may not widen
        # the zone maps of block 0, whose min and max the row does not hold
        row = int(np.argsort(t.scan(["value"])[1]["value"][:8])[3])
        t.modify_rows(np.array([row, row]), {"value": np.array([-1, 10**7])})
        assert_chunk_summaries(t.partitions[0])
        for step in range(120):
            n = t.row_count
            k = int(rng.choice([1, 3, 10, 100, 1000]))
            ids = rng.choice(n, size=k, replace=step % 3 == 0)
            if step % 2:
                ids = np.sort(ids)
            vals = rng.integers(-10**5, 11 * 10**5, size=k)
            t.modify_rows(ids, {"value": vals})
            for p in t.partitions:
                assert_chunk_summaries(p)

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_bad_columns_change_nothing(self, backend, monkeypatch):
        # the last chunk is full, so an append would open a new one
        use_backend(backend, monkeypatch)
        t = summarize(make_table(np.arange(256), partitions=2, block_size=4))
        before = t.scan()
        counts = [p.counts.tolist() for p in t.partitions]
        ids = np.array([1, 2, 200])
        for call, error in (
                (lambda: t.modify_rows(ids, {"value": [7]}), ValueError),
                (lambda: t.modify_rows(ids, {"value": [7, 8, 9, 10]}), ValueError),
                (lambda: t.modify_rows(ids, {"value": 7}), ValueError),
                (lambda: t.modify_rows(ids, {"nope": [7, 8, 9]}), KeyError),
                (lambda: t.insert_rows({"key": [1, 2, 3], "value": [7]}), ValueError),
                (lambda: t.insert_rows({"key": [1, 2, 3]}), ValueError),
                (lambda: t.insert_rows({"key": [1], "value": [2], "nope": [3]}),
                 ValueError)):
            with pytest.raises(error):
                call()
            assert [p.counts.tolist() for p in t.partitions] == counts
            assert all(len(p.counts) == len(p.ends) for p in t.partitions)
            after = t.scan()
            assert np.array_equal(after[0], before[0])
            for c in before[1]:
                assert np.array_equal(after[1][c], before[1][c])
            for p in t.partitions:
                assert_chunk_summaries(p)

    def test_rebuild_no_blocks_is_noop(self):
        t = summarize(make_table(np.arange(100), partitions=1, block_size=16),
                      ["value"])
        before = [a.copy() for a in t.partitions[0].zones["value"]]
        t.partitions[0].refresh_zones(["value"], [])
        for a, b in zip(before, t.partitions[0].zones["value"]):
            assert np.array_equal(a, b)


def stale_partition(block_size, seed):
    """A partition of uneven chunks with partial last blocks, whose rows
    were all overwritten without a zone refresh."""
    rng = np.random.default_rng(seed)
    n = 5 * CHUNK_BLOCKS * block_size + 7
    p = Partition({"value": rng.integers(-10**6, 10**6, size=n),
                   "key": np.arange(n)}, block_size)
    summarize(p)
    p.delete_rows(np.flatnonzero(rng.random(n) < 0.1))
    for buf in p.chunks.values():
        buf[:] = rng.integers(-10**6, 10**6, size=buf.shape)
    return p


def all_zones(p):
    return [z.copy() for c in sorted(p.zones) for z in p.zones[c]]


class TestZoneRefresh:
    """``Partition.refresh_zones``: ``pi_zone_refresh`` and the numpy
    reference."""

    @needs_compiler
    @pytest.mark.parametrize("block_size", [16, 24])
    def test_kernel_matches_reference(self, block_size, monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        native = _native.lib
        for seed in range(40):
            results = []
            for lib in (native, None):
                monkeypatch.setattr(_native, "lib", lib)
                p = stale_partition(block_size, seed)
                assert (p.counts % block_size).any()  # partial last blocks
                live = np.flatnonzero(p.live)
                rng = np.random.default_rng([block_size, seed])
                blocks = live[rng.random(len(live))
                              < rng.choice([0, 0.05, 0.5, 1])]
                before = all_zones(p)
                p.refresh_zones(["key", "value"], blocks)
                after = all_zones(p)
                results.append(b"".join(z.tobytes() for z in after))
                # the given blocks hold their live rows' min and max, and no
                # other block changed
                refreshed = np.isin(np.arange(p.nchunks * CHUNK_BLOCKS), blocks)
                for i, c in enumerate(sorted(p.zones)):
                    for z in (0, 1):
                        got = after[2 * i + z][:p.nchunks].reshape(-1)
                        old = before[2 * i + z][:p.nchunks].reshape(-1)
                        assert np.array_equal(got[~refreshed], old[~refreshed])
                        for b in blocks.tolist():
                            k, j = divmod(b, CHUNK_BLOCKS)
                            rows = p.chunks[c][k, j * block_size:min(
                                (j + 1) * block_size, int(p.counts[k]))]
                            assert got[b] == (rows.max() if z else rows.min())
            assert results[0] == results[1], seed

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_bad_block_lists_change_nothing(self, backend, monkeypatch):
        use_backend(backend, monkeypatch)
        # chunks of cb 4-row blocks; deletes leave chunk 0 with cap - 4
        # rows (block cb - 1 dead) and chunk 4 with cap - 4 (block 5 cb - 1
        # dead)
        cb = CHUNK_BLOCKS
        cap = 4 * cb
        t = summarize(make_table(np.arange(5 * cap - 4), partitions=1,
                                 block_size=4))
        t.delete_rows(np.array([3, 2, 1, 0]))
        p = t.partitions[0]
        assert p.counts.tolist() == [cap - 4, cap, cap, cap, cap - 4]
        for buf in p.chunks.values():  # so any refreshed block would change
            buf[:] = -5
        before = all_zones(p)
        for bad in ([0, cb - 1], [0, 5 * cb - 1], [0, 5 * cb], [-1, 0],
                    [0, 1000],                       # not live
                    [2, 1], [3, 3],                  # not strictly ascending
                    [[1, 2]]):                       # not a list
            with pytest.raises(ValueError, match="live blocks"):
                p.refresh_zones(["key", "value"], np.array(bad))
            for a, b in zip(all_zones(p), before):
                assert np.array_equal(a, b), bad
        p.refresh_zones(["value"], [0, 5 * cb - 2])
        assert (p.zones["value"][0][0, 0] == -5
                and p.zones["value"][1][4, cb - 2] == -5)


class Unread:
    """A partition stand-in that fails on any read but its row count."""

    def __init__(self, nrows):
        self.nrows = nrows

    def __getattr__(self, name):
        raise AssertionError(f"read {name} of an unscanned partition")


def bitset(rows, n):
    """The rows of a partition of n rows as a scan's bit set."""
    return ShardedBitmap.from_rows(n, np.asarray(rows, dtype=np.int64))


class TestRowFilters:
    def _table(self):
        rng = np.random.default_rng(8)
        t = make_table(rng.integers(0, 100, size=300), partitions=3,
                       block_size=16)
        t.insert_rows({"key": np.arange(300, 310),
                       "value": rng.integers(0, 100, size=10)})
        _, full = t.scan()
        return t, full

    def test_skip_filter(self):
        t, full = self._table()
        rng = np.random.default_rng(1)
        masks = [rng.random(p.nrows) < 0.4 for p in t.partitions]
        keep = np.concatenate(masks)
        skips = [bitset(np.flatnonzero(~m), len(m)) for m in masks]
        ids, cols = t.scan(["value"], where=("skip", skips))
        assert np.array_equal(ids, np.flatnonzero(keep))
        assert np.array_equal(cols["value"], full["value"][keep])

    def test_skip_of_unscanned_partition_not_read(self, monkeypatch):
        t, full = self._table()
        parts = t.partitions
        # any read of the None entries' partitions but their row count fails
        t.partitions = [Unread(parts[0].nrows), parts[1], Unread(parts[2].nrows)]
        skip = np.array([0, 7, 8, 99])
        kept = np.delete(np.arange(100), skip)
        for lib in (_native.lib, None):
            monkeypatch.setattr(_native, "lib", lib)
            for where, want in ((("skip", [None, bitset(skip, 100), None]), 100 + kept),
                                (("take", [None, bitset(skip, 100), None]), 100 + skip),
                                (("skip", [None, (), None]), 100 + np.arange(100))):
                ids, cols = t.scan(["key", "value"], where=where)
                assert np.array_equal(ids, want)
                for c in ("key", "value"):
                    assert np.array_equal(cols[c], full[c][want]), c

    def test_skip_rows_checked(self, monkeypatch):
        t, _ = self._table()
        n = t.partitions[2].nrows  # the last partition holds the inserts
        for lib in (_native.lib, None):
            monkeypatch.setattr(_native, "lib", lib)
            for bad in (bitset([], n + 1), bitset([0], n - 1), np.array([4]),
                        [], 0):
                for kind in ("skip", "take"):
                    entries = [(), (), bad]
                    with pytest.raises(ValueError, match="bit set"):
                        t.scan(["value"], where=(kind, entries))

    def test_take_filter(self):
        t, full = self._table()
        rng = np.random.default_rng(2)
        masks = [rng.random(p.nrows) < 0.4 for p in t.partitions]
        keep = np.concatenate(masks)
        ids, cols = t.scan(["key", "value"], where=(
            "take", [bitset(np.flatnonzero(m), len(m)) for m in masks]))
        assert np.array_equal(ids, np.flatnonzero(keep))
        for c in ("key", "value"):
            assert np.array_equal(cols[c], full[c][keep]), c
        n = [p.nrows for p in t.partitions]
        ids, cols = t.scan(["key"], where=("take", [(), bitset([], n[1]), None]))
        assert len(ids) == len(cols["key"]) == 0

    def test_take_matches_filtered_full_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            t = chunked_table(rng, int(rng.integers(0, 700)))
            full_ids, full_cols = t.scan()
            offsets = t.partition_offsets()
            want = np.zeros(t.row_count, dtype=bool)
            take = []
            for p, lo in zip(t.partitions, offsets.tolist()):
                pick = rng.integers(0, 4)  # None, empty, sparse or dense rows
                rows = (None if pick == 0 else np.flatnonzero(
                    rng.random(p.nrows) < (0, 0, 0.1, 0.9)[pick]))
                if rows is not None:
                    want[lo + rows] = True
                take.append(None if rows is None else bitset(rows, p.nrows))
            ids, cols = t.scan(["key", "value"], where=("take", take))
            assert np.array_equal(ids, full_ids[want])
            for c in ("key", "value"):
                assert np.array_equal(cols[c], full_cols[c][want])

    def test_filter_lists_checked(self, monkeypatch):
        # partitions of 5, 0 and 5 rows
        t = ColumnTable.from_partitions(
            [{"key": np.arange(a, b), "value": 10 * np.arange(a, b)}
             for a, b in ((0, 5), (5, 5), (5, 10))], block_size=4)
        assert [p.nrows for p in t.partitions] == [5, 0, 5]
        for lib in (_native.lib, None):
            monkeypatch.setattr(_native, "lib", lib)
            for kind in ("skip", "take"):
                for rows in ([(), ()], [(), (), (), ()], []):
                    with pytest.raises(ValueError, match="one entry per partition"):
                        t.scan(["value"], where=(kind, rows))
                for bad in (bitset([0], 5), [0, 3], bitset([], 1)):
                    with pytest.raises(ValueError, match="bit set"):
                        t.scan(["value"], where=(kind, [(), bad, ()]))
            ids, cols = t.scan(["value"], where=(
                "take", [bitset([4], 5), (), bitset([0, 4], 5)]))
            assert ids.tolist() == [4, 5, 9]
            assert cols["value"].tolist() == [40, 50, 90]
            ids, _ = t.scan(["value"], where=(
                "skip", [bitset([0, 4], 5), bitset([], 0), bitset([1], 5)]))
            assert ids.tolist() == [1, 2, 3, 5, 7, 8, 9]


class TestSortUnique:
    CASES = [
        np.zeros(0, dtype=np.int64),
        np.array([NULL_VALUE, 3, NULL_VALUE, -1]),
        np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0,
                  np.iinfo(np.int64).max]),
        np.full(50, 7, dtype=np.int64),
        np.array([42]),
        np.random.default_rng(0).integers(-100, 100, size=5000),
        np.array([b"b", b"a", b"bb", b"a", b""], dtype="S4"),
    ]

    @pytest.mark.parametrize("values", CASES, ids=lambda v: f"{v.dtype}-{len(v)}")
    def test_matches_np_unique(self, values):
        got = sort_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_accepts_lists(self):
        assert sort_unique([3, 1, 3]).tolist() == [1, 3]


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        t = summarize(make_table(rng.integers(0, 100, size=500), partitions=3))
        path = tmp_path / "t.pdx"
        t.save(path)
        loaded = summarize(ColumnTable.load(path))
        assert loaded.schema == t.schema
        a_ids, a_cols = t.scan()
        b_ids, b_cols = loaded.scan()
        assert np.array_equal(a_ids, b_ids)
        for c in t.column_names:
            assert np.array_equal(a_cols[c], b_cols[c])
        for p, q in zip(t.partitions, loaded.partitions):
            assert p.nchunks == q.nchunks
            for c in p.int_columns():
                for k in range(p.nchunks):
                    for a, b in zip(p.chunk_minmax(c, k), q.chunk_minmax(c, k)):
                        assert np.array_equal(a, b)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.pdx"
        path.write_bytes(b"NOPE1234")
        with pytest.raises(ValueError):
            ColumnTable.load(path)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_flipped_zone_map_byte_rejected(self, tmp_path, where):
        t = make_table(np.arange(1000), partitions=2, block_size=16)
        path = tmp_path / "t.pdx"
        t.save(path)
        buf = bytearray(path.read_bytes())
        # the zone maps of both int64 columns close the file
        zone_bytes = sum(2 * 8 * -(-p.nrows // 16) * 2 for p in t.partitions)
        buf[len(buf) - zone_bytes if where == "first" else -1] ^= 0x01
        path.write_bytes(bytes(buf))
        partition = 0 if where == "first" else 1
        with pytest.raises(ValueError, match=f"partition {partition}") as e:
            ColumnTable.load(path)
        assert str(path) in str(e.value)

    def test_bytes_column_roundtrip(self, tmp_path):
        t = ColumnTable.from_partitions([{
            "key": np.arange(3, dtype=np.int64),
            "pad": np.array([b"aa", b"bb", b"cc"], dtype="S8"),
        }])
        t.save(tmp_path / "t.pdx")
        loaded = ColumnTable.load(tmp_path / "t.pdx")
        assert loaded.scan(["pad"])[1]["pad"].tolist() == [b"aa", b"bb", b"cc"]


# -- chunked storage -------------------------------------------------------------

def table_segments(t):
    """(first rowID, rows, column arrays, zone maps) of every chunk with
    rows, in rowID order."""
    offset = 0
    for p in t.partitions:
        for k in range(p.nchunks):
            n = int(p.counts[k])
            yield (offset, n, {c: p.chunk(c, k) for c in p.chunks},
                   {c: p.chunk_minmax(c, k) for c in p.int_columns()})
            offset += n


def filter_holds(p, column, block, value):
    """Whether a block's filter has every bit of value's pattern set."""
    word, pattern = filter_hash([value], p.filter_log2)
    f = p.filter_words(column).reshape(-1, 1 << p.filter_log2)
    return (f[block, word[0]] & pattern[0]) == pattern[0]


def prune_reference(t, column, values):
    """The probe's block prune as a loop over every block of every chunk:
    a block is kept when its [min, max] holds a value that its own filter
    holds too. Returns the kept count and each partition's kept block
    numbers."""
    kept = []
    for p in t.partitions:
        kept.append([])
        for k in range(p.nchunks):
            for j, (lo_v, hi_v) in enumerate(zip(*p.chunk_minmax(column, k))):
                b = k * CHUNK_BLOCKS + j
                if any(lo_v <= v <= hi_v and filter_holds(p, column, b, v)
                       for v in values):
                    kept[-1].append(b)
    return sum(map(len, kept)), kept


def chunked_table(rng, rows, partitions=3, block_size=4):
    t = make_table(rng.integers(0, 200, size=rows), partitions, block_size)
    # deletes and an insert give chunks of uneven fill
    t.delete_rows(np.sort(rng.choice(rows, size=rows // 3, replace=False))[::-1])
    t.insert_rows({"key": np.arange(50), "value": rng.integers(0, 200, size=50)})
    return t


class TestScanRangeHelpers:
    def test_prune_and_count_match_loops(self, monkeypatch):
        rng = np.random.default_rng(12)
        native = _native.lib
        for _ in range(20):
            t = summarize(chunked_table(rng, int(rng.integers(0, 700))))
            assert t.total_blocks() == sum(-(-n // t.block_size)
                                           for _, n, _, _ in table_segments(t))
            for _ in range(10):
                values = rng.integers(-5, 205, size=int(rng.integers(0, 6)))
                want_count, want = prune_reference(t, "value", values)
                keys = sort_unique(values)
                for lib in (native, None):
                    monkeypatch.setattr(_native, "lib", lib)
                    count, ids, _ = t.probe("value", values)
                    assert count == want_count, values
                    assert [p.probe("value", keys)[0]
                            for p in t.partitions] == list(map(len, want))
                    # every matching row lies in a kept block
                    assert np.isin(ids, block_rowids(t, want)).all(), values

    def test_span_scan_matches_filtered_full_scan(self, monkeypatch):
        rng = np.random.default_rng(15)
        native = _native.lib
        for _ in range(20):
            t = chunked_table(rng, int(rng.integers(0, 700)))
            full_ids, full_cols = t.scan()
            for _ in range(10):
                keys = rng.integers(-5, 205, size=int(rng.integers(0, 8)))
                want = np.isin(full_cols["value"], keys)
                for lib in (native, None):
                    monkeypatch.setattr(_native, "lib", lib)
                    _, ids, values = t.probe("value", keys)
                    assert np.array_equal(ids, full_ids[want])
                    assert np.array_equal(values, full_cols["value"][want])


def use_backend(backend, monkeypatch):
    if backend == "native" and _native.lib is None:
        pytest.skip("no compiled kernels")
    if backend == "numpy":
        monkeypatch.setattr(_native, "lib", None)


def random_skips(rng, n):
    """Ascending distinct positions below n: none, all, the ends, or a
    random share, which also makes runs of one to a few rows."""
    pick = int(rng.integers(0, 6))
    if n == 0 or pick == 0:
        return np.zeros(0, dtype=np.int64)
    if pick == 1:
        return np.arange(n)
    if pick == 2:
        return np.unique([0, n - 1])
    share = rng.random()
    return np.flatnonzero(rng.random(n) < share)


class TestCompact:
    """A delete compacts the kept rows of every column in place, on both
    backends; each case compares against np.delete."""

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    @pytest.mark.parametrize("dtype", ["int64", "S3"])
    def test_matches_np_delete(self, backend, dtype, monkeypatch):
        """One chunk: the kept rows close up, and bad rows change nothing."""
        use_backend(backend, monkeypatch)
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            row = rng.integers(0, 1000, size=n).astype(dtype)
            dead = random_skips(rng, n)
            p = summarize(Partition({"value": row}, block_size=4))
            p.delete_rows(dead)
            assert np.array_equal(p.columns["value"], np.delete(row, dead))
            assert p.nrows == n - len(dead)
            assert_chunk_summaries(p)
        row = np.arange(10).astype(dtype)
        for dead, error in (([3, 3], ValueError), ([4, 2], ValueError),
                            ([-1], IndexError), ([10], IndexError)):
            p = Partition({"value": row}, block_size=4)
            with pytest.raises(error):
                p.delete_rows(np.array(dead))
            assert np.array_equal(p.columns["value"], row)

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    @pytest.mark.parametrize("dtype", ["int64", "S3"])
    def test_gap_copy_matches_np_delete(self, backend, dtype, monkeypatch):
        """Uneven chunks, emptied chunks included, with an int64 column
        alongside."""
        use_backend(backend, monkeypatch)
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(0, 5 * 64))
            p = summarize(Partition(
                {"pad": rng.integers(0, 1000, size=n).astype(dtype),
                 "key": np.arange(n)}, block_size=4))
            first = np.flatnonzero(rng.random(n) < rng.random())
            p.delete_rows(first)  # chunks of uneven fill
            live = {c: a.copy() for c, a in p.columns.items()}
            dead = random_skips(rng, p.nrows)
            p.delete_rows(dead)
            for c, a in live.items():
                assert np.array_equal(p.columns[c], np.delete(a, dead)), c
            assert (p.counts >= 1).all() and (p.counts <= p.capacity).all()
            assert_chunk_summaries(p)

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_bad_skips_rejected_without_writing(self, backend, monkeypatch):
        use_backend(backend, monkeypatch)
        p = kernel_partition(4, 37)
        before = partition_state(p)
        twice = 4 * 4 * CHUNK_BLOCKS + 2  # a row of chunk 4, given twice
        for dead, error in (([3, 1], ValueError), ([2, 2], ValueError),
                            ([-1], IndexError), ([p.nrows], IndexError),
                            ([4, twice, twice], ValueError)):
            with pytest.raises(error):
                p.delete_rows(np.array(dead))
            assert_states_equal(partition_state(p), before)


def use_select_path(path, monkeypatch):
    """Run ``select`` on the AVX-512 path, the scalar path (through its
    entry point) or the numpy reference."""
    if path == "numpy":
        monkeypatch.setattr(_native, "lib", None)
    elif _native.lib is None:
        pytest.skip("no compiled kernels")
    elif path == "scalar":
        monkeypatch.setattr(_native.lib, "pi_select", _native.lib.pi_select_scalar)
    elif _native.SELECT_PATH != "avx512":
        pytest.skip("the CPU has no AVX-512")


SELECT_PATHS = ["avx512", "scalar", "numpy"]
SPLIT_COLUMNS = ["key", "value", "tag", "wide"]


def split_table(store, rng):
    """A table of an int64, an S3 and a 16-byte column in four partitions,
    its NUC index and, per partition, the live columns and patch mask.

    Partition 0 has random patches, 1 none, 2 only patches and 3 no rows.
    Deletes empty chunk 2 of partition 0 and hit every bitmap shard, but
    leave each bitmap above CONDENSE_BELOW, so the bitmaps have lost bits
    at their shard ends and the chunk grid no longer lines up with the
    shard grid."""
    sizes, parts, masks, first = (700, 300, 300, 0), [], [], 0
    for n, share in zip(sizes, (0.3, 0, 1, 0)):
        key = np.arange(first, first + n)
        first += n
        parts.append({"key": key, "value": rng.integers(-2**62, 2**62, size=n),
                      "tag": (key % 1000).astype("S3"), "wide": key.astype("S16")})
        masks.append(rng.random(n) < share)
    t = ColumnTable.from_partitions(parts, block_size=4)
    idx = TableIndex("value", NUC, [
        PatchIndex.from_patches(NUC, np.flatnonzero(m), len(m), store=store,
                                shard_size_bits=128) for m in masks])
    offsets = np.cumsum((0,) + sizes)
    gone = [np.unique(np.concatenate((np.arange(128, 192 if p == 0 else 136),
                                      rng.choice(n, size=n // 10, replace=False))))
            if n else np.zeros(0, np.int64) for p, n in enumerate(sizes)]
    rows = np.concatenate([g + o for g, o in zip(gone, offsets)])[::-1]
    t.delete_rows(rows)
    idx.drop_rows(rows)
    live = [({c: np.delete(part[c], g) for c in SPLIT_COLUMNS}, np.delete(m, g))
            for part, m, g in zip(parts, masks, gone)]
    if store == "bitmap":
        assert all(p.store._bits.lost_bits > 0 for p in idx.partitions[:3])
        # every shard before the last lost bits
        assert all((np.diff(p.store._bits.starts) < 128).all()
                   for p in idx.partitions[:3])
    # chunk 1 of partition 0 ends inside a shard
    assert t.partitions[0].ends[1] % 128
    return t, idx, live


class TestSelect:
    @pytest.mark.parametrize("store", ["bitmap", "identifiers"])
    @pytest.mark.parametrize("path", SELECT_PATHS)
    def test_scan_matches_patch_masks(self, store, path, monkeypatch):
        t, idx, live = split_table(store, np.random.default_rng(21))
        use_select_path(path, monkeypatch)
        bits = [p.patch_bits() for p in idx.partitions]
        offsets = t.partition_offsets()
        for kind in ("skip", "take"):
            for read in ([0, 1, 2, 3], [0, 2], [1, 3]):
                ids, cols = t.scan(SPLIT_COLUMNS, where=(kind, [
                    b if p in read else None for p, b in enumerate(bits)]))
                want_ids, want = [], {c: [] for c in SPLIT_COLUMNS}
                for p in read:
                    columns, mask = live[p]
                    keep = mask if kind == "take" else ~mask
                    want_ids.append(offsets[p] + np.flatnonzero(keep))
                    for c in SPLIT_COLUMNS:
                        want[c].append(columns[c][keep])
                assert np.array_equal(ids, np.concatenate(want_ids)), (kind, read)
                for c in SPLIT_COLUMNS:
                    assert cols[c].dtype == t.partitions[0].chunks[c].dtype
                    assert np.array_equal(cols[c], np.concatenate(want[c])), c

    @pytest.mark.parametrize("path", SELECT_PATHS)
    def test_bitmap_patch_rows(self, path, monkeypatch):
        _, idx, live = split_table("bitmap", np.random.default_rng(22))
        use_select_path(path, monkeypatch)
        for p, (_, mask) in zip(idx.partitions, live):
            assert np.array_equal(p.store.patch_rows(), np.flatnonzero(mask))

    @pytest.mark.parametrize("path", SELECT_PATHS)
    def test_bad_bits_and_spans_raise_before_writing(self, path, monkeypatch):
        use_select_path(path, monkeypatch)
        good = ShardedBitmap(300, 64)
        good.set_many(np.arange(0, 300, 3))
        good.bulk_delete(np.array([290, 200, 130, 64, 5]))
        n = good.logical_len
        src = np.arange(n) * 10

        def bent(starts=None, logical_len=n):
            b = ShardedBitmap(n, 64)
            b._set_arrays(good.words.copy(), good.starts.copy()
                          if starts is None else np.array(starts, np.int64))
            b.logical_len = logical_len
            return b

        s = good.starts.tolist()
        bad_bits = [bent([1] + s[1:]),                   # starts[0] is not 0
                    bent(s[:2] + [s[1] - 1] + s[3:]),    # starts descend
                    bent([0, 65] + s[2:]),               # shard 0 holds 65 bits
                    bent(logical_len=n + 1)]             # not the partition's rows
        whole = [(0, n, 0)]
        cases = [(b, whole) for b in bad_bits]
        cases += [(good, sp) for sp in ([(0, n + 1, 0)], [(5, 4, 0)],
                                        [(0, 9, 0), (8, 20, 8)], [(0, 9, -1)])]
        for bits, spans in cases:
            for take in (False, True):
                dst, ids = np.full(n, -7), np.full(n, -7)
                with pytest.raises(ValueError):
                    select([(dst, src), (ids, None)], spans, n, bits, take)
                assert (dst == -7).all() and (ids == -7).all()
        assert select([(np.zeros(n), np.arange(n) * 1.0)], whole, n, None,
                      False) == n

    @pytest.mark.parametrize("path", SELECT_PATHS)
    def test_bits_in_dead_slots_raise(self, path, monkeypatch):
        use_select_path(path, monkeypatch)
        bits = ShardedBitmap(256, 64)
        bits.bulk_delete(np.array([100, 10]))  # shards 0 and 1 lose a bit
        bits.words[0] |= np.uint64(1) << np.uint64(63)  # a dead slot
        n = bits.logical_len
        for take, room in ((False, n - 1), (True, 1)):
            with pytest.raises(ValueError):
                select([(np.empty(room, np.int64), None)], [(0, n, 0)], n,
                       bits, take)


class TestChunks:
    def test_capacity_is_a_block_multiple(self):
        t = make_table(np.arange(10), block_size=8)
        assert t.partitions[0].capacity == CHUNK_BLOCKS * 8

    def test_caller_arrays_never_written(self):
        values = np.arange(300, dtype=np.int64)
        keys = values.copy()
        t = ColumnTable.from_partitions([{"key": keys, "value": values}],
                                        block_size=4)
        t.modify_rows(np.array([3]), {"value": np.array([-1])})
        t.delete_rows(np.array([200, 5, 1]))
        assert np.array_equal(values, np.arange(300))
        assert np.array_equal(keys, np.arange(300))

    def test_columns_view_is_read_only(self):
        t = make_table(np.arange(300), partitions=1, block_size=4)
        p = t.partitions[0]
        assert p.nchunks > 1
        with pytest.raises(ValueError):
            p.columns["value"][0] = 5
        t.delete_rows(np.array([2]))  # chunk 0 is no longer full
        assert np.array_equal(p.columns["value"], np.delete(np.arange(300), 2))

    def test_delete_rewrites_only_the_touched_chunk(self):
        t = make_table(np.arange(1000), partitions=1, block_size=4)
        p = t.partitions[0]
        buf = p.chunks["value"]
        before = buf.copy()
        t.delete_rows(np.array([p.capacity + 10]))  # chunk 1
        assert p.chunks["value"] is buf
        for k in range(p.nchunks):
            if k != 1:
                assert np.array_equal(buf[k], before[k]), k

    def test_save_matches_generated_file_of_the_contiguous_writer(self, tmp_path):
        # digests of files written by the whole-partition storage this
        # layout replaced; 75k-row partitions fill more than one chunk
        want = {"nuc": "0267593c70bddde09a823c228d8fe77bdfe43bf04462b3de2f42f09122ee389b",
                "nsc": "a79d20bd3938e896bf6dd3a22ac87e9eca5f525f4fe69ad37b36a38468ca88c2"}
        for spec in (GenSpec("nuc", 150_000, 0.2, partitions=2, seed=7),
                     GenSpec("nsc", 150_000, 0.2, partitions=2, seed=7,
                             pad_bytes=3)):
            path = tmp_path / f"{spec.kind}.pdx"
            t = summarize(generate_to_file(spec, path))
            assert t.partitions[0].nchunks > 1
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == want[spec.kind], spec.kind
            # so these are the contiguous writer's bytes, and they load
            loaded = summarize(ColumnTable.load(path))
            for a, b in zip(t.scan()[1].values(), loaded.scan()[1].values()):
                assert np.array_equal(a, b)
            for p, q in zip(t.partitions, loaded.partitions):
                for c in p.int_columns():
                    for a, b in zip(p.zones[c], q.zones[c]):
                        assert np.array_equal(a[:p.nchunks], b[:q.nchunks])


def kernel_partition(block_size, extra):
    """A partition of 5 full chunks plus extra rows, with an int64 and a
    fixed-width bytes column and the int64 column's filters built."""
    cap = CHUNK_BLOCKS * block_size
    n = 5 * cap + extra
    rng = np.random.default_rng(n)
    p = Partition({"value": rng.integers(-10**6, 10**6, size=n),
                   "pad": rng.integers(0, 10**6, size=n).astype("S3")},
                  block_size)
    p.filter_words("value")
    return p


def delete_cases(p):
    """Named ascending row sets of a kernel_partition."""
    starts = (p.ends - p.counts).tolist()
    ends = p.ends.tolist()
    rng = np.random.default_rng(1)
    return {
        "chunk ends": [starts[1], ends[2] - 1, ends[3] - 1, starts[4]],
        "emptied chunk": list(range(starts[2], ends[2])),
        "partial last block": [p.nrows - 3, p.nrows - 1],
        "one row": [starts[3] + 5],
        "all rows": list(range(p.nrows)),
        "random share": np.flatnonzero(rng.random(p.nrows) < 0.01).tolist(),
    }


def crossing_positions(p, rows):
    """Buffer positions, after a delete of the ascending partition rows,
    of the rows it moves into another block of their chunk."""
    out = [np.zeros(0, np.int64)]
    bs = p.block_size
    for k, (start, n) in enumerate(zip((p.ends - p.counts).tolist(),
                                       p.counts.tolist())):
        kept = np.delete(np.arange(n), rows[(rows >= start) & (rows < start + n)]
                         - start)
        new = np.arange(len(kept))
        out.append(k * p.capacity + new[kept // bs != new // bs])
    return np.concatenate(out)


def partition_state(p):
    """Rows, counts, filters and live zone maps of a partition."""
    live = {c: [p.chunk(c, k).copy() for k in range(p.nchunks)]
            for c in p.chunks}
    zones = {c: [z.copy() for k in range(p.nchunks)
                 for z in p.chunk_minmax(c, k)] for c in p.zones}
    return (p.counts.tolist(), p.nrows, live, zones,
            p.filter_words("value").copy())


def assert_states_equal(a, b):
    assert a[:2] == b[:2]
    for got, want in ((a[2], b[2]), (a[3], b[3])):
        assert got.keys() == want.keys()
        for c in got:
            assert len(got[c]) == len(want[c])
            assert all(np.array_equal(x, y) for x, y in zip(got[c], want[c])), c
    assert np.array_equal(a[4], b[4])


class TestDeleteKernel:
    """``pi_delete_rows`` against the per-chunk reference."""

    @needs_compiler
    @pytest.mark.parametrize("block_size, extra", [(4, 37), (4096, 5003)])
    def test_matches_reference(self, block_size, extra, monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        for name, rows in delete_cases(kernel_partition(block_size, extra)).items():
            rows = np.array(rows, dtype=np.int64)
            states = []
            for lib in (_native.lib, None):
                with monkeypatch.context() as m:
                    m.setattr(_native, "lib", lib)
                    p = kernel_partition(block_size, extra)
                    values = np.concatenate([p.chunk("value", k)
                                             for k in range(p.nchunks)])
                    p.delete_rows(rows)
                    assert np.array_equal(p.columns["value"],
                                          np.delete(values, rows)), name
                    assert_chunk_summaries(p)
                    states.append(partition_state(p))
            assert_states_equal(*states)

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_delete_adds_only_crossing_rows(self, backend, monkeypatch):
        use_backend(backend, monkeypatch)
        # chunks of 64 and 128 rows, whatever CHUNK_BLOCKS
        for block_size, extra in ((64 // CHUNK_BLOCKS, 37),
                                  (128 // CHUNK_BLOCKS, 100)):
            for name in ("chunk ends", "one row", "random share"):
                p = kernel_partition(block_size, extra)
                rows = np.array(delete_cases(p)[name], dtype=np.int64)
                moved = crossing_positions(p, rows)
                want = p.filter_words("value").copy()
                nchunks = p.nchunks
                p.delete_rows(rows)
                assert p.nchunks == nchunks  # no condense moved rows
                filter_add(want.reshape(-1, want.shape[-1]),
                           p.chunks["value"].reshape(-1)[moved],
                           moved // block_size)
                assert len(moved)
                assert np.array_equal(p.filter_words("value"), want), name

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_bad_rows_change_nothing(self, backend, monkeypatch):
        use_backend(backend, monkeypatch)
        p = summarize(Partition({"value": np.arange(300, dtype=np.int64)},
                                block_size=4))
        counts = p.counts.copy()
        for rows, error in (([5, 300], IndexError), ([-1, 5], IndexError),
                            ([7, 5], ValueError), ([5, 5], ValueError),
                            ([5, 400, 7], ValueError)):
            with pytest.raises(error):
                p.delete_rows(np.array(rows))
            assert np.array_equal(p.counts, counts)
            assert p.nrows == 300
            assert np.array_equal(p.columns["value"], np.arange(300))
        assert_chunk_summaries(p)

    @needs_compiler
    def test_compiled_delete_makes_no_per_chunk_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-chunk call in a compiled delete")

        p = kernel_partition(4, 37)
        ends = p.ends.tolist()
        rows = np.array([1, ends[0] + 2, ends[2] + 3, ends[4] - 1])
        want = np.delete(p.columns["value"], rows)
        monkeypatch.setattr(Partition, "_delete_rows_reference", forbidden)
        monkeypatch.setattr(Partition, "refresh_zones", forbidden)
        p.delete_rows(rows)  # no two neighbours fit one chunk: no condense
        assert np.array_equal(p.columns["value"], want)
        assert_chunk_summaries(p)


def contiguous_pdx1(t):
    """The PDX1 bytes of a table: each partition's rows in order, then the
    zone maps of that contiguous layout."""
    nparts = len(t.partitions)
    parts = [t.scan(where=("skip", [() if q == p else None for q in range(nparts)]))[1]
             for p in range(nparts)]
    header = json.dumps({"schema": [[n, d] for n, d in t.schema],
                         "partitions": [len(p["key"]) for p in parts],
                         "block_size": t.block_size}).encode()
    out = [MAGIC, struct.pack("<I", len(header)), header]
    out += [np.ascontiguousarray(p[name]).tobytes()
            for p in parts for name, _ in t.schema]
    out += [z.tobytes() for p in parts for name, dtype in t.schema
            if np.dtype(dtype) == np.int64
            for z in _block_minmax(p[name], t.block_size)]
    return b"".join(out)


def check_chunked_state(t, keys, values, rng):
    _, cols = t.scan()
    assert np.array_equal(cols["key"], keys)
    assert np.array_equal(cols["value"], values)
    for p in t.partitions:
        assert_chunk_summaries(p)
        assert (p.counts >= 1).all() and (p.counts <= p.capacity).all()
        assert (p.counts[:-1] + p.counts[1:] > p.capacity).all()
    for probe in (rng.integers(0, 100, size=3), rng.integers(0, 100, size=30)):
        count, ids, got = t.probe("value", probe)
        want = np.flatnonzero(np.isin(values, probe))
        assert np.array_equal(ids, want), probe
        assert np.array_equal(got, values[want]), probe
        assert count <= t.total_blocks()


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.integers(0, 150), min_size=1, max_size=3),
       statements=st.lists(st.tuples(st.sampled_from(["insert", "modify", "delete"]),
                                     st.integers(1, 90)), max_size=25),
       seed=st.integers(0, 2**16))
def test_chunked_updates_match_shadow(rows, statements, seed):
    # block_size 4 makes chunks of 64 rows, so statements cross chunk edges,
    # open chunks and condense them
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 100, size=sum(rows))
    keys = np.arange(len(values), dtype=np.int64)
    splits = np.cumsum(rows)[:-1]
    t = summarize(ColumnTable.from_partitions(
        [{"key": k, "value": v} for k, v in zip(np.split(keys, splits),
                                                 np.split(values, splits))],
        block_size=4))
    check_chunked_state(t, keys, values, rng)
    next_key = len(keys)
    for op, size in statements:
        n = len(values)
        if op == "insert":
            new = rng.integers(0, 100, size=size)
            t.insert_rows({"key": np.arange(next_key, next_key + size), "value": new})
            keys = np.concatenate([keys, np.arange(next_key, next_key + size)])
            values = np.concatenate([values, new])
            next_key += size
        elif op == "modify" and n:
            ids = rng.choice(n, size=min(n, size), replace=False)
            new = rng.integers(0, 100, size=len(ids))
            t.modify_rows(ids, {"value": new})
            values[ids] = new
        elif n:
            ids = np.sort(rng.choice(n, size=min(n, size), replace=False))[::-1]
            t.delete_rows(ids)
            keys, values = np.delete(keys, ids), np.delete(values, ids)
        check_chunked_state(t, keys, values, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pdx"
        t.save(path)
        assert path.read_bytes() == contiguous_pdx1(t)
        loaded = summarize(ColumnTable.load(path))
    check_chunked_state(loaded, keys, values, rng)


class TestRouting:
    def test_gather_rejects_rowids_outside_the_table(self):
        t = make_table(np.arange(200), partitions=2)
        for ids in ([-1, -5], [0, -1], [200], [3, 200]):
            with pytest.raises(IndexError, match="gather rowID out of range"):
                t.gather(np.array(ids), "value")
        assert t.gather(np.array([], dtype=np.int64), "value").size == 0

    def test_modify_and_delete_keep_their_messages(self):
        t = make_table(np.arange(200), partitions=2)
        with pytest.raises(IndexError, match="modify rowID out of range"):
            t.modify_rows(np.array([5, 200]), {"value": np.array([1, 2])})
        with pytest.raises(IndexError, match="delete rowID out of range"):
            t.delete_rows(np.array([3, -1]))
        assert np.array_equal(t.scan(["value"])[1]["value"], np.arange(200))

    def test_one_and_several_partitions_route_alike(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 10**6, size=900)
        t = make_table(values, partitions=3)
        for ids in (np.array([5, 1, 250]),          # first partition only
                    np.array([899, 600, 700]),      # last partition only
                    rng.integers(0, 900, size=40)):  # every partition
            assert np.array_equal(t.gather(ids, "value"), values[ids])

    def test_long_ascending_runs_match_unordered_rows(self):
        # uneven chunks give every chunk its own shift; past 1024 ascending
        # rows a partition cuts them at its chunk ends instead
        rng = np.random.default_rng(16)
        t = chunked_table(rng, 9000)
        _, full = t.scan()
        offsets = t.partition_offsets()
        for n in (10, 1500, 6000):
            rows = np.sort(rng.integers(0, t.row_count, size=n))
            for ids in (rows, rng.permutation(rows)):
                assert np.array_equal(t.gather(ids, "value"), full["value"][ids])
            # a take scan's rows ascend without repeats
            ids = sort_unique(rows)
            take = [ids[(ids >= a) & (ids < b)] - a
                    for a, b in zip(offsets.tolist(), offsets[1:].tolist())]
            assert (max(map(len, take)) > 1024) == (n == 6000)
            got, cols = t.scan(["key"], where=("take", [
                bitset(rows, p.nrows) for rows, p in zip(take, t.partitions)]))
            assert np.array_equal(got, ids)
            assert np.array_equal(cols["key"], full["key"][ids])
        assert len({int(s) for p in t.partitions for s in p.shift}) > 3


# -- block membership filters ------------------------------------------------------

def assert_live_values_in_filters(t, column="value"):
    """Every live value passes its own block's filter."""
    for p in t.partitions:
        f = p.filter_words(column)
        for k in range(p.nchunks):
            values = p.chunk(column, k)
            words, pattern = filter_hash(values, p.filter_log2)
            block = np.arange(len(values)) // p.block_size
            assert ((f[k, block, words] & pattern) == pattern).all(), k


def filter_stream(block_size, seed, steps=300):
    """Yields a 3-partition table with its filters built, then after each
    statement of a seeded stream of inserts, modifies and deletes. Block
    sizes 4 and 8 make chunks of 64 and 128 rows, so statements open,
    condense and reopen chunks."""
    rng = np.random.default_rng(seed)
    t = make_table(rng.integers(0, 10**9, size=700), partitions=3,
                   block_size=block_size)
    t.probe("value", [1])  # builds the filters
    yield t
    for _ in range(steps):
        n = t.row_count
        op = rng.choice(["insert", "modify", "delete"], p=[0.35, 0.3, 0.35])
        size = int(rng.integers(1, 120))
        if op == "insert" or n < 150:
            t.insert_rows({"key": np.arange(size),
                           "value": rng.integers(0, 10**9, size=size)})
        elif op == "modify":
            ids = rng.choice(n, size=min(n, size), replace=False)
            t.modify_rows(ids, {"value": rng.integers(0, 10**9, size=len(ids))})
        else:
            ids = np.sort(rng.choice(n, size=min(n - 1, size), replace=False))
            t.delete_rows(ids[::-1])
        yield t


class TestLazySummaries:
    """Zone maps and filters exist only for probed columns."""

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_only_probed_columns_are_summarized(self, backend, monkeypatch):
        use_backend(backend, monkeypatch)
        rng = np.random.default_rng(26)
        t = make_table(rng.integers(0, 10**9, size=700), partitions=3,
                       block_size=4)
        merges = 0
        for step in range(400):
            if step == 100:
                t.probe("value", [1])
            n = t.row_count
            op = rng.choice(["insert", "modify", "delete"], p=[0.35, 0.3, 0.35])
            size = int(rng.integers(1, 120))
            if op == "insert" or n < 150:
                t.insert_rows({"key": rng.integers(0, 10**9, size=size),
                               "value": rng.integers(0, 10**9, size=size)})
            elif op == "modify":
                ids = rng.choice(n, size=min(n, size), replace=False)
                cols = [["key"], ["value"], ["key", "value"]][step % 3]
                t.modify_rows(ids, {c: rng.integers(0, 10**9, size=len(ids))
                                    for c in cols})
            else:
                ids = np.sort(rng.choice(n, size=min(n - 1, size), replace=False))
                chunks = sum(p.nchunks for p in t.partitions)
                t.delete_rows(ids[::-1])
                # fewer chunks after a delete: neighbours were merged
                merges += sum(p.nchunks for p in t.partitions) < chunks
            probed = ["value"] if step >= 100 else []
            for p in t.partitions:
                assert list(p.zones) == list(p.filters) == probed
                assert_chunk_summaries(p, probed)
            if probed:
                assert_live_values_in_filters(t)
        assert merges > 10
        # a first probe summarizes the key column as a full rebuild would
        t.probe("key", [1])
        for p in t.partitions:
            assert list(p.zones) == list(p.filters) == ["value", "key"]
            assert_chunk_summaries(p, ["key"])
            want = np.zeros_like(p.filter_words("key"))
            for k in range(p.nchunks):
                filter_add(want[k], p.chunk("key", k),
                           np.arange(p.counts[k]) // p.block_size)
            assert np.array_equal(p.filter_words("key"), want)

    def test_load_summarizes_nothing(self, tmp_path):
        t = make_table(np.arange(1000), partitions=2, block_size=16)
        t.save(tmp_path / "t.pdx")
        loaded = ColumnTable.load(tmp_path / "t.pdx")
        assert all(not p.zones and not p.filters for p in loaded.partitions)

    def test_bytes_column_is_not_summarized(self):
        p = Partition({"pad": np.array([b"abc"] * 100, dtype="S3")}, 4)
        with pytest.raises(ValueError, match="int64 column"):
            p.filter_words("pad")
        assert not p.zones and not p.filters


class TestFilters:
    @needs_compiler
    def test_kernel_matches_numpy_reference(self, monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        rng = np.random.default_rng(21)
        edge = np.array([0, -1, 1, NULL_VALUE, np.iinfo(np.int64).max])
        for log2 in (1, 3, 8, 14):
            values = np.concatenate([edge, rng.integers(-10**12, 10**12, size=3000),
                                     np.arange(5000)])
            chunk = rng.integers(0, 5, size=len(values))
            built = {}
            for backend in ("c", "numpy"):
                if backend == "numpy":
                    monkeypatch.setattr(_native, "lib", None)
                filters = np.zeros((5, 1 << log2), dtype=np.uint64)
                filter_add(filters, values, chunk)
                one = np.zeros(1 << log2, dtype=np.uint64)
                filter_add(one, values)
                built[backend] = (filters, one)
                monkeypatch.undo()
            for got, want in zip(built["c"], built["numpy"]):
                assert np.array_equal(got, want), log2
            assert built["c"][0].any()
        for bad in (np.zeros((2, 6), np.uint64), np.zeros((2, 8), np.int64),
                    np.zeros((8, 2), np.uint64)[:, :1]):
            with pytest.raises(ValueError):
                filter_add(bad, [1, 2], [0, 1])
        for chunk in ([0, 2], [-1, 0], [0]):
            with pytest.raises(ValueError):
                filter_add(np.zeros((2, 8), np.uint64), [1, 2], chunk)

    @needs_compiler
    def test_prune_kernel_matches_numpy_reference(self, monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        rng = np.random.default_rng(24)
        native = _native.lib
        # 2- and 8-word filters make false positives common; 60 values
        # make blocks with many values inside their zone maps
        for block_size in (4, 24):
            for _ in range(30):
                t = chunked_table(rng, int(rng.integers(0, 700)),
                                  block_size=block_size)
                for size in (0, 1, 5, 60):
                    keys = sort_unique(rng.integers(-5, 205, size=size))
                    for p, base in zip(t.partitions,
                                       t.partition_offsets().tolist()):
                        got = []
                        for lib in (native, None):
                            monkeypatch.setattr(_native, "lib", lib)
                            got.append(p.probe("value", keys, base))
                        assert got[0][0] == got[1][0]
                        for a, b in zip(got[0][1:], got[1][1:]):
                            assert a.dtype == b.dtype == np.int64
                            assert np.array_equal(a, b)

    def test_built_lazily_for_value_set_probes_only(self):
        t = make_table(np.arange(3000), partitions=2, block_size=8)
        t.insert_rows({"key": np.arange(5), "value": np.arange(5)})
        t.modify_rows(np.array([7]), {"value": np.array([1])})
        t.delete_rows(np.array([9]))
        assert all(not p.filters for p in t.partitions)
        assert t.filter_bytes() == 0
        t.probe("value", [3])
        assert all(list(p.filters) == ["value"] for p in t.partitions)
        p = t.partitions[0]
        assert t.filter_bytes() == sum(q.nchunks for q in t.partitions) \
            * p.capacity * 16 // 8
        assert_live_values_in_filters(t)

    @pytest.mark.parametrize("backend", ["native", "numpy"])
    def test_live_values_pass_after_random_stream(self, backend, monkeypatch):
        use_backend(backend, monkeypatch)
        for block_size in (4, 8):
            chunk_counts = set()
            for t in filter_stream(block_size, 22):
                chunk_counts.add(t.partitions[-1].nchunks)
                assert_live_values_in_filters(t)
            assert len(chunk_counts) > 3  # chunks were opened and condensed

    @needs_compiler
    def test_backends_leave_identical_filters(self, monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        native = _native.lib
        for block_size in (4, 8):
            final = []
            for lib in (native, None):
                monkeypatch.setattr(_native, "lib", lib)
                for t in filter_stream(block_size, 25):
                    pass
                final.append(t)
            a, b = final
            assert np.array_equal(a.scan()[1]["value"], b.scan()[1]["value"])
            for p, q in zip(a.partitions, b.partitions):
                assert p.counts.tolist() == q.counts.tolist()
                assert p.filter_words("value").tobytes() \
                    == q.filter_words("value").tobytes()

    def test_absent_values_skip_chunks(self):
        # shuffled even values: zone maps span the whole domain, so only the
        # filters can rule blocks out
        rng = np.random.default_rng(23)
        values = 2 * rng.permutation(200_000)
        t = summarize(make_table(values, partitions=4, block_size=256), ["value"])
        for p in t.partitions:
            for k in range(p.nchunks):
                mins, maxs = p.chunk_minmax("value", k)
                assert (mins < 100_000).all() and (maxs > 300_000).all()
        # near 0.5% false positives per block and value; twice that bounds
        # what a filter lets through
        present = values[rng.choice(len(values), size=5, replace=False)]
        count, ids, _ = t.probe("value", present)
        # each present value keeps its own block, plus false positives
        assert count <= 5 + 0.01 * 5 * t.total_blocks()
        assert np.array_equal(ids, np.flatnonzero(np.isin(values, present)))
        # 20 odd values, none in the table
        absent = 2 * rng.choice(200_000, size=20, replace=False) + 1
        kept, ids, _ = t.probe("value", absent)
        assert kept < 0.01 * 20 * t.total_blocks() and not len(ids)


class TestProbe:
    @needs_compiler
    @pytest.mark.parametrize("block_size", [4, 24])
    def test_kernel_matches_reference_over_stream(self, block_size,
                                                  monkeypatch):
        assert _native.lib is not None, "C kernels failed to build"
        native = _native.lib
        rng = np.random.default_rng(block_size)
        chunks, merges = None, 0
        for step, t in enumerate(filter_stream(block_size, 27, steps=150)):
            now = sum(p.nchunks for p in t.partitions)
            merges += chunks is not None and now < chunks
            chunks = now
            full_ids, full = t.scan(["value"])
            values = full["value"]
            # present keys, keys inside the zone maps that (almost surely)
            # no row holds, and keys outside every zone map
            size = (0, 1, 5, 60)[step % 4]
            keys = sort_unique(np.concatenate([
                rng.choice(values, size=size // 2),
                rng.integers(0, 10**9, size=size // 4),
                rng.choice([-7, -1, 10**9 + 3, 2**62],
                           size=size - size // 2 - size // 4)]).astype(np.int64))
            got = {}
            for lib in (None, native):
                monkeypatch.setattr(_native, "lib", lib)
                got[lib] = [p.probe("value", keys, base) for p, base in zip(
                    t.partitions, t.partition_offsets().tolist())]
            for (kept, ids, vals), (want_kept, want_ids, want_vals) in zip(
                    got[native], got[None]):
                assert kept == want_kept, step
                assert ids.dtype == vals.dtype == np.int64
                assert np.array_equal(ids, want_ids), step
                assert np.array_equal(vals, want_vals), step
            want = np.isin(values, keys)
            count, ids, vals = t.probe("value", keys)
            assert count == sum(kept for kept, _, _ in got[native])
            assert np.array_equal(ids, full_ids[want]), step
            assert np.array_equal(vals, values[want]), step
        assert merges > 0
