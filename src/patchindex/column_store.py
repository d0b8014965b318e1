"""Minimal columnar table storage.

Tables hold int64 (and fixed-width bytes) columns split into partitions.
Global rowIDs are dense, assigned by partition order then position. Each
partition keeps per-block min/max summaries for its int64 columns, and the
last partition carries an in-memory append delta for rows inserted by the
current update statement. Deletes compact rows immediately, shifting all
subsequent rowIDs down.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import _native

MAGIC = b"PDX1"
DEFAULT_BLOCK_SIZE = 4096


@dataclass
class ScanRange:
    """Sorted, disjoint [start_row, end_row) intervals of global rowIDs."""

    intervals: list

    @classmethod
    def full(cls, row_count):
        return cls([(0, row_count)]) if row_count else cls([])

    @classmethod
    def normalized(cls, intervals):
        merged = []
        for lo, hi in sorted(intervals):
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return cls(merged)

    def clip(self, lo, hi):
        """Intervals intersected with [lo, hi)."""
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if a2 < b2:
                out.append((a2, b2))
        return out

    def row_count(self):
        return sum(b - a for a, b in self.intervals)

    def is_empty(self):
        return not self.intervals


def sort_unique(values, return_counts=False):
    """Sorted distinct values, and optionally their counts, like np.unique.

    One sort plus a neighbour comparison. Under numpy 2.x a flagless
    np.unique takes a hash path that is up to 20x slower on int64 columns
    of 10^5-10^6 rows, so every distinct computation in the engine goes
    through this function instead.
    """
    s = np.sort(np.asarray(values))
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    uniq = s[first]
    if not return_counts:
        return uniq
    counts = np.diff(np.append(np.flatnonzero(first), len(s)))
    return uniq, counts


def in_positions(values, keys):
    """Ascending positions of the values that occur in keys.

    keys must be a sorted, duplicate-free array (``sort_unique``). int64
    values with integer keys run the compiled kernel; anything else, or a
    missing build, runs the numpy reference.
    """
    lib = _native.lib
    if (lib is None or values.dtype != np.int64
            or not np.can_cast(keys.dtype, np.int64)):
        return np.flatnonzero(np.isin(values, keys))
    values = np.ascontiguousarray(values)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    out = np.empty(len(values), dtype=np.int64)
    count = lib.pi_in_positions(values.ctypes.data, len(values),
                                keys.ctypes.data, len(keys), out.ctypes.data)
    if count < 0:
        raise MemoryError("membership filter allocation failed")
    return out[:count]


def _block_minmax(values, block_size):
    n = len(values)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    starts = np.arange(0, n, block_size)
    mins = np.minimum.reduceat(values, starts)
    maxs = np.maximum.reduceat(values, starts)
    return mins, maxs


class Partition:
    """Column arrays plus block summaries and an append delta."""

    def __init__(self, columns, block_size=DEFAULT_BLOCK_SIZE, minmax=None):
        self.columns = columns
        self.block_size = block_size
        self.delta = {}
        self.delta_minmax = {}
        if minmax is None:
            self.rebuild_minmax()
        else:
            self.minmax = minmax

    @property
    def nrows(self):
        return len(next(iter(self.columns.values()))) if self.columns else 0

    @property
    def delta_rows(self):
        return len(next(iter(self.delta.values()))) if self.delta else 0

    @property
    def total_rows(self):
        return self.nrows + self.delta_rows

    def int_columns(self):
        return [c for c, a in self.columns.items() if a.dtype == np.int64]

    def rebuild_minmax(self):
        self.minmax = {c: _block_minmax(self.columns[c], self.block_size)
                       for c in self.int_columns()}

    def rebuild_minmax_blocks(self, column, blocks):
        """Recompute the summaries of the given distinct blocks.

        The touched full blocks are gathered as rows of a (blocks,
        block_size) view and reduced together, so the work follows the
        touched rows, not the partition size.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        mins, maxs = self.minmax[column]
        arr = self.columns[column]
        nfull = len(arr) // self.block_size
        full = blocks[blocks < nfull]
        if full.size:
            rows = arr[:nfull * self.block_size].reshape(nfull, -1)
            if full.size < nfull:
                rows = rows[full]
            mins[full] = rows.min(axis=1)
            maxs[full] = rows.max(axis=1)
        if np.any(blocks == nfull):  # the partial last block
            tail = arr[nfull * self.block_size:]
            mins[nfull] = tail.min()
            maxs[nfull] = tail.max()

    def append_delta(self, rows):
        for c, arr in rows.items():
            if c in self.delta:
                self.delta[c] = np.concatenate([self.delta[c], arr])
            else:
                self.delta[c] = np.asarray(arr)
        for c in self.delta:
            if self.delta[c].dtype == np.int64:
                self.delta_minmax[c] = _block_minmax(self.delta[c], self.block_size)

    def merge_delta(self):
        if not self.delta:
            return
        # summaries change only from the old last (maybe partial) block on
        first = self.nrows // self.block_size
        for c in self.columns:
            self.columns[c] = np.concatenate([self.columns[c], self.delta[c]])
        for c in self.int_columns():
            mins, maxs = self.minmax[c]
            tail_mins, tail_maxs = _block_minmax(
                self.columns[c][first * self.block_size:], self.block_size)
            self.minmax[c] = (np.concatenate([mins[:first], tail_mins]),
                              np.concatenate([maxs[:first], tail_maxs]))
        self.delta = {}
        self.delta_minmax = {}


class ColumnTable:
    def __init__(self, schema, partitions, block_size=DEFAULT_BLOCK_SIZE):
        self.schema = schema  # list of (name, numpy dtype str)
        self.partitions = partitions
        self.block_size = block_size

    @classmethod
    def from_partitions(cls, partition_columns, block_size=DEFAULT_BLOCK_SIZE):
        first = partition_columns[0]
        schema = [(name, np.asarray(arr).dtype.str) for name, arr in first.items()]
        parts = [Partition({c: np.asarray(a) for c, a in cols.items()}, block_size)
                 for cols in partition_columns]
        return cls(schema, parts, block_size)

    @property
    def column_names(self):
        return [name for name, _ in self.schema]

    @property
    def row_count(self):
        return sum(p.total_rows for p in self.partitions)

    def partition_offsets(self):
        """Global rowID of the first row of each partition (plus the end)."""
        sizes = [p.total_rows for p in self.partitions]
        return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    def _check_columns(self, columns):
        for c in columns:
            if c not in self.column_names:
                raise KeyError(f"unknown column {c!r}")

    # -- scans ---------------------------------------------------------------

    def scan(self, columns=None, scan_range=None, where=None):
        """Materialize rows (persisted then delta) as (rowids, column dict).

        where is an optional filter, applied to each segment before
        anything is concatenated, so rowIDs and column copies are built for
        the kept rows only:

        - ("in", column, keys): rows whose column value occurs in keys;
        - ("mask", masks): rows whose flag is set in masks[p], a bool array
          over partition p's rows (persisted then delta). Only partitions
          the scan reaches are read, so the others may be None;
        - ("rows", rowids): the rows at the given ascending global rowIDs.
        """
        columns = list(columns) if columns is not None else self.column_names
        self._check_columns(columns)
        kind = where[0] if where is not None else None
        if kind == "in":
            _, where_col, keys = where
            self._check_columns([where_col])
            keys = sort_unique(keys)
        elif kind == "rows":
            rowids = np.asarray(where[1], dtype=np.int64)
        elif kind not in (None, "mask"):
            raise ValueError(f"unknown scan filter {where!r}")
        ids_parts, col_parts = [], {c: [] for c in columns}
        part_lo = 0
        for pnum, p in enumerate(self.partitions):
            offset = part_lo
            for source, nrows in ((p.columns, p.nrows), (p.delta, p.delta_rows)):
                if nrows == 0:
                    continue
                spans = ([(offset, offset + nrows)] if scan_range is None
                         else scan_range.clip(offset, offset + nrows))
                for lo, hi in spans:
                    seg = slice(lo - offset, hi - offset)
                    # rows: the kept rows, relative to the span start lo
                    if kind is None:
                        rows = slice(None)
                        ids = np.arange(lo, hi, dtype=np.int64)
                    elif kind == "in":
                        rows = in_positions(source[where_col][seg], keys)
                        ids = lo + rows
                    elif kind == "mask":
                        mask = where[1][pnum]
                        if len(mask) != p.total_rows:
                            raise ValueError(
                                f"partition {pnum} mask covers {len(mask)} "
                                f"of {p.total_rows} rows")
                        # positions gather faster than a bool index
                        rows = np.flatnonzero(mask[lo - part_lo:hi - part_lo])
                        ids = lo + rows
                    else:
                        a, b = np.searchsorted(rowids, (lo, hi))
                        ids = rowids[a:b]
                        rows = ids - lo
                    ids_parts.append(ids)
                    for c in columns:
                        col_parts[c].append(source[c][seg][rows])
                offset += nrows
            part_lo = offset
        if not ids_parts:
            empty_cols = {}
            for c in columns:
                dtype = dict(self.schema)[c]
                empty_cols[c] = np.zeros(0, dtype=dtype)
            return np.zeros(0, dtype=np.int64), empty_cols
        return (np.concatenate(ids_parts),
                {c: np.concatenate(col_parts[c]) for c in columns})

    def scan_delta(self, columns=None):
        """Rows inserted by the current update statement, with global ids."""
        columns = list(columns) if columns is not None else self.column_names
        self._check_columns(columns)
        ids_parts, col_parts = [], {c: [] for c in columns}
        offset = 0
        for p in self.partitions:
            offset += p.nrows
            if p.delta_rows:
                ids_parts.append(np.arange(offset, offset + p.delta_rows,
                                           dtype=np.int64))
                for c in columns:
                    col_parts[c].append(p.delta[c])
            offset += p.delta_rows
        if not ids_parts:
            return np.zeros(0, dtype=np.int64), {
                c: np.zeros(0, dtype=dict(self.schema)[c]) for c in columns}
        return (np.concatenate(ids_parts),
                {c: np.concatenate(col_parts[c]) for c in columns})

    # -- block pruning ----------------------------------------------------------

    def prune_blocks(self, column, predicate):
        """Global ScanRange of blocks whose [min, max] may satisfy predicate.

        predicate is ("interval", lo, hi) with inclusive bounds, or
        ("in", values). The result is a superset of the qualifying rows.
        """
        self._check_columns([column])
        intervals = []
        offset = 0
        for p in self.partitions:
            for minmax, nrows in ((p.minmax, p.nrows),
                                  (p.delta_minmax, p.delta_rows)):
                if nrows == 0:
                    offset += nrows
                    continue
                mins, maxs = minmax[column]
                hit = self._blocks_matching(mins, maxs, predicate)
                for b in np.flatnonzero(hit):
                    lo = offset + b * self.block_size
                    hi = min(lo + self.block_size, offset + nrows)
                    intervals.append((int(lo), int(hi)))
                offset += nrows
        return ScanRange.normalized(intervals)

    @staticmethod
    def _blocks_matching(mins, maxs, predicate):
        kind = predicate[0]
        if kind == "interval":
            _, lo, hi = predicate
            return (maxs >= lo) & (mins <= hi)
        if kind == "in":
            values = np.sort(np.asarray(predicate[1], dtype=np.int64))
            # block qualifies when some value falls inside [min, max]
            left = np.searchsorted(values, mins, side="left")
            right = np.searchsorted(values, maxs, side="right")
            return right > left
        raise ValueError(f"unknown predicate {predicate!r}")

    def total_blocks(self):
        total = 0
        for p in self.partitions:
            total += -(-p.nrows // self.block_size)
            total += -(-p.delta_rows // self.block_size)
        return total

    def count_blocks(self, scan_range):
        """Blocks a range-restricted scan touches."""
        count = 0
        offset = 0
        for p in self.partitions:
            for nrows in (p.nrows, p.delta_rows):
                if nrows == 0:
                    continue
                blocks = set()
                for lo, hi in scan_range.clip(offset, offset + nrows):
                    first = (lo - offset) // self.block_size
                    last = (hi - 1 - offset) // self.block_size
                    blocks.update(range(first, last + 1))
                count += len(blocks)
                offset += nrows
        return count

    # -- updates -------------------------------------------------------------------

    def insert_rows(self, rows):
        """Append rows to the last partition's delta; returns their rowIDs."""
        n = len(next(iter(rows.values())))
        start = self.row_count
        self.partitions[-1].append_delta(
            {c: np.asarray(v) for c, v in rows.items()})
        return np.arange(start, start + n, dtype=np.int64)

    def merge_delta(self):
        for p in self.partitions:
            p.merge_delta()

    def modify_rows(self, rowids, updates):
        """In-place update; updates maps column name to per-row new values."""
        rowids = np.asarray(rowids, dtype=np.int64)
        offsets = self.partition_offsets()
        if rowids.size == 0:
            return
        if rowids.max() >= self.row_count or rowids.min() < 0:
            raise IndexError("modify rowID out of range")
        part = np.searchsorted(offsets, rowids, side="right") - 1
        for pnum in sort_unique(part):
            sel = part == pnum
            local = rowids[sel] - offsets[pnum]
            p = self.partitions[pnum]
            if local.size and local.max() >= p.nrows:
                raise IndexError("cannot modify unmerged delta rows")
            for c, vals in updates.items():
                p.columns[c][local] = np.asarray(vals)[sel]
                if p.columns[c].dtype == np.int64:
                    p.rebuild_minmax_blocks(c, sort_unique(local // p.block_size))

    def gather(self, rowids, column):
        """Values of one column at arbitrary persisted rowIDs."""
        rowids = np.asarray(rowids, dtype=np.int64)
        offsets = self.partition_offsets()
        out = np.empty(len(rowids), dtype=dict(self.schema)[column])
        part = np.searchsorted(offsets, rowids, side="right") - 1
        for pnum in sort_unique(part):
            sel = part == pnum
            local = rowids[sel] - offsets[pnum]
            p = self.partitions[pnum]
            if local.size and local.max() >= p.nrows:
                raise IndexError("cannot gather unmerged delta rows")
            out[sel] = p.columns[column][local]
        return out

    def delete_rows(self, descending_rowids):
        """Physically remove rows; subsequent rowIDs shift down."""
        rowids = np.asarray(descending_rowids, dtype=np.int64)
        if rowids.size == 0:
            return
        if rowids.size > 1 and not np.all(np.diff(rowids) < 0):
            raise ValueError("delete rowIDs must be strictly descending")
        if rowids[0] >= self.row_count or rowids[-1] < 0:
            raise IndexError("delete rowID out of range")
        offsets = self.partition_offsets()
        part = np.searchsorted(offsets, rowids, side="right") - 1
        for pnum in sort_unique(part):
            local = rowids[part == pnum] - offsets[pnum]
            p = self.partitions[pnum]
            if local.size and local.max() >= p.nrows:
                raise IndexError("cannot delete unmerged delta rows")
            for c in list(p.columns):
                p.columns[c] = np.delete(p.columns[c], local)
            p.rebuild_minmax()

    # -- persistence ----------------------------------------------------------------

    def save(self, path):
        """Single-file binary dump; the delta is never persisted."""
        if any(p.delta_rows for p in self.partitions):
            raise ValueError("merge the delta before saving")
        header = {
            "schema": [[name, dtype] for name, dtype in self.schema],
            "partitions": [p.nrows for p in self.partitions],
            "block_size": self.block_size,
        }
        blob = json.dumps(header).encode()
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for p in self.partitions:
                for name, _ in self.schema:
                    f.write(np.ascontiguousarray(p.columns[name]).tobytes())
            for p in self.partitions:
                for c in p.int_columns():
                    mins, maxs = p.minmax[c]
                    f.write(mins.tobytes())
                    f.write(maxs.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            buf = f.read()
        if buf[:4] != MAGIC:
            raise ValueError(f"{path}: not a table file (bad magic)")
        (hlen,) = struct.unpack("<I", buf[4:8])
        header = json.loads(buf[8:8 + hlen].decode())
        schema = [(name, dtype) for name, dtype in header["schema"]]
        block_size = header["block_size"]
        pos = 8 + hlen
        raw_parts = []
        for nrows in header["partitions"]:
            cols = {}
            for name, dtype in schema:
                dt = np.dtype(dtype)
                nbytes = dt.itemsize * nrows
                cols[name] = np.frombuffer(buf, dtype=dt, count=nrows,
                                           offset=pos).copy()
                pos += nbytes
            raw_parts.append(cols)
        partitions = []
        for nrows, cols in zip(header["partitions"], raw_parts):
            minmax = {}
            nblocks = -(-nrows // block_size)
            for name, dtype in schema:
                if np.dtype(dtype) == np.int64:
                    mins = np.frombuffer(buf, dtype=np.int64, count=nblocks,
                                         offset=pos).copy()
                    pos += nblocks * 8
                    maxs = np.frombuffer(buf, dtype=np.int64, count=nblocks,
                                         offset=pos).copy()
                    pos += nblocks * 8
                    minmax[name] = (mins, maxs)
            partitions.append(Partition(cols, block_size, minmax=minmax))
        return cls(schema, partitions, block_size)
