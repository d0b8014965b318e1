"""Patch indexes: materialized exceptions to approximate column constraints.

A patch is a rowID violating a constraint. For a nearly unique column (NUC)
every occurrence of a duplicated value is a patch, so the non-patch rows are
pairwise distinct and disjoint from the patch values. For a nearly sorted
column (NSC) the non-patch rows form a monotone subsequence and the index
tracks the value at its tail.
"""

import enum
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import _native
from .column_store import in_positions, route_rows, select, sort_unique
from .sharded_bitmap import (DEFAULT_SHARD_BITS, ShardedBitmap, _worker_pool,
                             default_threads)

# Sentinel for SQL NULL in int64 columns; always a patch under both constraints.
NULL_VALUE = int(np.iinfo(np.int64).min)

_STORE_HEADER_BYTES = 48
# a bitmap store repacks its bitmap after a drop that leaves fewer of its
# slots live than this share, so deletes cannot grow it without bound. A
# high share keeps the index size nearly flat under a stream of deletes
# and appends: a repack of a 250k-bit partition's bitmap costs about 0.14
# ms, about once every 50 1000-row statements at 0.95
CONDENSE_BELOW = 0.95


class ConstraintKind(enum.Enum):
    NEARLY_UNIQUE = "nuc"
    NEARLY_SORTED = "nsc"


class SortOrder(enum.Enum):
    ASCENDING = "asc"
    DESCENDING = "desc"


@dataclass(frozen=True)
class Constraint:
    kind: ConstraintKind
    order: SortOrder | None = None

    def __post_init__(self):
        if self.kind is ConstraintKind.NEARLY_SORTED and self.order is None:
            raise ValueError("sorted constraint requires an order")
        if self.kind is ConstraintKind.NEARLY_UNIQUE and self.order is not None:
            raise ValueError("unique constraint takes no order")


NUC = Constraint(ConstraintKind.NEARLY_UNIQUE)
NSC_ASC = Constraint(ConstraintKind.NEARLY_SORTED, SortOrder.ASCENDING)
NSC_DESC = Constraint(ConstraintKind.NEARLY_SORTED, SortOrder.DESCENDING)


# --------------------------------------------------------------------------
# patch stores

class BitmapPatchStore:
    """Dense store: bit i set iff rowID i is a patch."""

    variant = "bitmap"

    def __init__(self, row_count, shard_size_bits=DEFAULT_SHARD_BITS):
        self._bits = ShardedBitmap(row_count, shard_size_bits)

    def is_patch(self, row):
        return bool(self._bits.get(row))

    def mask(self, row_count):
        assert row_count == self._bits.logical_len
        return self._bits.to_bool_array()

    def add(self, rows):
        self._bits.set_many(rows)

    def remove(self, rows):
        self._bits.unset_many(rows)

    def drop_rows(self, descending_rows):
        self._bits.bulk_delete(descending_rows)
        if self._bits.utilization() < CONDENSE_BELOW:
            self._bits.condense()

    def grow(self, extra_rows):
        self._bits.append(extra_rows)

    def patch_count(self):
        return self._bits.count_set()

    def last_non_patch(self, row_count):
        assert row_count == self._bits.logical_len
        return self._bits.last_unset()

    def bits(self, row_count):
        assert row_count == self._bits.logical_len
        return self._bits

    def patch_rows(self):
        """The set bits' rows, by the scans' select in take mode."""
        bits = self._bits
        rows = np.empty(bits.count_set(), dtype=np.int64)
        select([(rows, None)], [(0, bits.logical_len, 0)], bits.logical_len,
               bits, take=True)
        return rows

    def memory_bytes(self):
        return self._bits.memory_bytes()


class IdentifierPatchStore:
    """Sparse store: strictly increasing array of 64-bit patch rowIDs."""

    variant = "identifiers"

    def __init__(self, row_count, shard_size_bits=None):
        self._ids = np.zeros(0, dtype=np.int64)

    def is_patch(self, row):
        i = np.searchsorted(self._ids, row)
        return bool(i < len(self._ids) and self._ids[i] == row)

    def mask(self, row_count):
        out = np.zeros(row_count, dtype=bool)
        out[self._ids] = True
        return out

    def add(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            self._ids = sort_unique(np.concatenate((self._ids, rows)))

    def remove(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            self._ids = self._ids[~np.isin(self._ids, rows)]

    def drop_rows(self, descending_rows):
        dropped = np.asarray(descending_rows, dtype=np.int64)[::-1]
        if dropped.size == 0:
            return
        keep = self._ids[~np.isin(self._ids, dropped)]
        # decrement each surviving id by the count of dropped rows below it
        self._ids = keep - np.searchsorted(dropped, keep, side="left")

    def grow(self, extra_rows):
        pass

    def patch_count(self):
        return len(self._ids)

    def last_non_patch(self, row_count):
        # the ids are strictly increasing: walk down past the trailing run
        row, i = row_count - 1, len(self._ids) - 1
        while i >= 0 and row >= 0 and self._ids[i] == row:
            row, i = row - 1, i - 1
        return row if row >= 0 else None

    def bits(self, row_count):
        """The ids as the bits of a one-shard bitmap of row_count rows."""
        return ShardedBitmap.from_rows(row_count, self._ids)

    def patch_rows(self):
        return self._ids.copy()

    def memory_bytes(self):
        return self._ids.nbytes + _STORE_HEADER_BYTES


_STORES = {"bitmap": BitmapPatchStore, "identifiers": IdentifierPatchStore}


def make_store(variant, row_count, shard_size_bits=DEFAULT_SHARD_BITS):
    try:
        cls = _STORES[variant]
    except KeyError:
        raise ValueError(f"unknown store variant {variant!r}") from None
    return cls(row_count, shard_size_bits)


# --------------------------------------------------------------------------
# discovery

def nuc_patch_rows(values):
    """Ascending rowIDs of every occurrence of a duplicated value, plus NULLs.

    One sort finds the duplicated values (equal sorted neighbours); the
    membership filter then returns every position holding one of them.
    """
    values = np.asarray(values, dtype=np.int64)
    s = np.sort(values)
    dups = s[1:][s[1:] == s[:-1]]
    # NULL_VALUE is the int64 minimum, so a NULL sorts first
    nulls = s[:1][s[:1] == NULL_VALUE]
    return in_positions(values, sort_unique(np.concatenate((nulls, dups))))


def lss_keep_mask(values):
    """Keep-mask of one longest non-decreasing subsequence (patience method).

    The reference for the ``pi_lss_keep`` kernel and its no-compiler
    fallback (see ``lss_keep``). values is any indexable sequence of
    mutually comparable items; a list of Python ints runs fastest, since
    the loop reads one element at a time. Runs in O(n log n).
    """
    n = len(values)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    tails = []                               # smallest tail value per length
    tail_idx = []                            # element index of that tail
    prev = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        v = values[i]
        k = bisect_right(tails, v)
        if k == len(tails):
            tails.append(v)
            tail_idx.append(i)
        else:
            tails[k] = v
            tail_idx[k] = i
        if k:
            prev[i] = tail_idx[k - 1]
    i = tail_idx[-1]
    while i >= 0:
        keep[i] = True
        i = prev[i]
    return keep


def lss_keep(values, order=SortOrder.ASCENDING):
    """Keep-mask of one longest monotone (ties allowed) subsequence.

    values is an int64 array without NULLs. Runs the ``pi_lss_keep``
    kernel, which releases the GIL, or ``lss_keep_mask`` when the kernels
    are missing; both keep the same rows.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    descending = order is SortOrder.DESCENDING
    lib = _native.lib
    if lib is None:
        seq = values.tolist()
        return lss_keep_mask([-v for v in seq] if descending else seq)
    keep = np.empty(len(values), dtype=bool)
    if lib.pi_lss_keep(_native.address(values), len(values), descending,
                       _native.address(keep)) < 0:
        raise MemoryError("longest sorted subsequence allocation failed")
    return keep


def nsc_patch_rows(values, order=SortOrder.ASCENDING):
    """Minimal patch set for sortedness and the tail value of the kept run.

    Returns (patch_rows, last_sorted_value, last_sorted_row); the kept rows
    form a longest monotone (ties allowed) subsequence, NULLs are always
    patches.
    """
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    eligible = np.flatnonzero(values != NULL_VALUE)
    if eligible.size == 0:
        return np.arange(n, dtype=np.int64), None, None
    kept = eligible[lss_keep(values[eligible], order)]
    keep = np.zeros(n, dtype=bool)
    keep[kept] = True
    return np.flatnonzero(~keep), int(values[kept[-1]]), int(kept[-1])


# --------------------------------------------------------------------------
# per-partition index

class PatchIndex:
    """Constraint metadata plus the patch set of one partition."""

    def __init__(self, constraint, store, row_count, last_sorted_value=None):
        self.constraint = constraint
        self.store = store
        self.row_count = row_count
        self.last_sorted_value = last_sorted_value

    @classmethod
    def from_patches(cls, constraint, patch_rows, row_count, *,
                     store="bitmap", shard_size_bits=DEFAULT_SHARD_BITS,
                     last_sorted_value=None):
        index = cls(constraint, make_store(store, row_count, shard_size_bits),
                    row_count, last_sorted_value)
        index.add_patches(patch_rows)
        return index

    @property
    def patch_count(self):
        return self.store.patch_count()

    @property
    def exception_rate(self):
        if self.row_count == 0:
            return 0.0
        return self.patch_count / self.row_count

    def is_patch(self, row):
        if not 0 <= row < self.row_count:
            raise IndexError(f"rowID {row} out of range")
        return self.store.is_patch(row)

    def patch_mask(self):
        return self.store.mask(self.row_count)

    def patch_bits(self):
        """The patches as a ``ShardedBitmap`` of the partition's rows, the
        form a scan's "skip" and "take" filters read."""
        return self.store.bits(self.row_count)

    def last_non_patch(self):
        """Highest non-patch rowID, or None when every row is a patch."""
        return self.store.last_non_patch(self.row_count)

    # the mutators check their rows here, once for both stores, before
    # the store changes

    def _rows(self, rows, what):
        """rows as an int64 array; a row outside [0, row_count) raises
        IndexError."""
        rows = np.asarray(rows, dtype=np.int64)
        # as uint64 a negative row lies past any row count: one reduction
        if rows.size and rows.view(np.uint64).max() >= self.row_count:
            raise IndexError(f"{what} rowID out of range")
        return rows

    def add_patches(self, rows):
        self.store.add(self._rows(rows, "add_patches"))

    def remove_patches(self, rows):
        self.store.remove(self._rows(rows, "remove_patches"))

    def drop_rows(self, descending_rows):
        rows = np.asarray(descending_rows, dtype=np.int64)
        if (rows[1:] >= rows[:-1]).any():
            raise ValueError("drop_rows rowIDs must be strictly descending")
        if rows.size == 0:
            return
        if rows[0] >= self.row_count or rows[-1] < 0:
            raise IndexError("drop_rows rowID out of range")
        self.store.drop_rows(rows)
        self.row_count -= rows.size

    def grow(self, new_rows):
        self.store.grow(new_rows)
        self.row_count += new_rows

    def memory_bytes(self):
        return self.store.memory_bytes()

    def check_invariant(self, values):
        """Full-scan validation of the constraint over non-patch rows."""
        values = np.asarray(values, dtype=np.int64)
        assert len(values) == self.row_count
        good = values[~self.patch_mask()]
        if (good == NULL_VALUE).any():
            return False
        if self.constraint.kind is ConstraintKind.NEARLY_UNIQUE:
            return len(sort_unique(good)) == len(good)
        if len(good) == 0:
            return self.last_sorted_value is None
        diffs = np.diff(good)
        ordered = (diffs >= 0).all() if self.constraint.order is SortOrder.ASCENDING \
            else (diffs <= 0).all()
        return bool(ordered) and self.last_sorted_value == int(good[-1])


def discover_nuc(values, *, store="bitmap", shard_size_bits=DEFAULT_SHARD_BITS):
    values = np.asarray(values, dtype=np.int64)
    return PatchIndex.from_patches(NUC, nuc_patch_rows(values), len(values),
                                   store=store, shard_size_bits=shard_size_bits)


def discover_nsc(values, order=SortOrder.ASCENDING, *, store="bitmap",
                 shard_size_bits=DEFAULT_SHARD_BITS):
    values = np.asarray(values, dtype=np.int64)
    patches, lsv, _ = nsc_patch_rows(values, order)
    constraint = NSC_ASC if order is SortOrder.ASCENDING else NSC_DESC
    return PatchIndex.from_patches(constraint, patches, len(values),
                                   store=store, shard_size_bits=shard_size_bits,
                                   last_sorted_value=lsv)


# --------------------------------------------------------------------------
# table-level aggregation over partitions

class TableIndex:
    """One PatchIndex per partition of an indexed column.

    Global rowIDs are dense across partitions in partition order; every
    method taking rowIDs works on global IDs and routes to the owning
    partition's local index.
    """

    def __init__(self, column, constraint, partition_indexes):
        self.column = column
        self.constraint = constraint
        self.partitions = partition_indexes

    @property
    def row_count(self):
        return sum(p.row_count for p in self.partitions)

    @property
    def patch_count(self):
        return sum(p.patch_count for p in self.partitions)

    @property
    def exception_rate(self):
        rows = self.row_count
        return self.patch_count / rows if rows else 0.0

    @property
    def store_variant(self):
        return self.partitions[0].store.variant

    def memory_bytes(self):
        return sum(p.memory_bytes() for p in self.partitions)

    def _offsets(self):
        sizes = [p.row_count for p in self.partitions]
        return np.concatenate(([0], np.cumsum(sizes)))

    def split_global(self, rows):
        """Group global rowIDs by partition, preserving order within each.

        Yields (partition_number, local_rows) for non-empty groups. A
        rowID outside the index raises IndexError before anything is
        yielded.
        """
        rows = np.asarray(rows, dtype=np.int64)
        sizes = [p.row_count for p in self.partitions]
        for p, _, local in route_rows(rows, sizes, "index"):
            yield p, local

    def is_patch(self, row):
        (p, local), = self.split_global([row])
        return self.partitions[p].is_patch(int(local[0]))

    def global_patch_mask(self):
        return np.concatenate([p.patch_mask() for p in self.partitions])

    def global_patch_rows(self, partition=None):
        """Ascending global rowIDs of the patches, of one partition or all.

        Read from the stores' own rows: an identifier store copies its ids,
        a bitmap store selects the rows of its set bits; no global mask is
        built.
        """
        offsets = self._offsets()
        parts = (range(len(self.partitions)) if partition is None
                 else [partition])
        rows = [self.partitions[p].store.patch_rows() + offsets[p] for p in parts]
        return np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)

    def add_patches(self, rows):
        for p, local in self.split_global(rows):
            self.partitions[p].add_patches(local)

    def remove_patches(self, rows):
        for p, local in self.split_global(rows):
            self.partitions[p].remove_patches(local)

    def drop_rows(self, descending_rows):
        for p, local in self.split_global(descending_rows):
            self.partitions[p].drop_rows(local)

    def check_invariant(self, values):
        """Full-scan validation over the whole table's column values, in
        rowID order: every partition's own invariant, and for NUC the
        DISTINCT rewrite's global one, that the non-patch values are unique
        across partitions and that no patch row holds any of them."""
        values = np.asarray(values, dtype=np.int64)
        offsets = self._offsets()
        assert len(values) == offsets[-1]
        if not all(p.check_invariant(values[lo:hi]) for p, lo, hi in
                   zip(self.partitions, offsets[:-1], offsets[1:])):
            return False
        if self.constraint.kind is not ConstraintKind.NEARLY_UNIQUE:
            return True
        patch = self.global_patch_mask()
        good = values[~patch]
        return (len(sort_unique(good)) == len(good)
                and not np.isin(good, values[patch]).any())

    def grow_last(self, new_rows):
        """Extend the final partition; inserts append at the table end."""
        self.partitions[-1].grow(new_rows)

    def stats(self):
        """Index figures for ``patchindex index stats``. Bitmap health is
        the lost bits summed and the utilization at its minimum over the
        partitions; a store without a bitmap counts as 0 and 1.0."""
        bitmaps = [p.store._bits for p in self.partitions
                   if isinstance(p.store, BitmapPatchStore)]
        return {
            "column": self.column,
            "constraint": self.constraint.kind.value,
            "order": self.constraint.order.value if self.constraint.order else None,
            "store": self.store_variant,
            "rows": self.row_count,
            "patches": self.patch_count,
            "exception_rate": self.exception_rate,
            "memory_bytes": self.memory_bytes(),
            "partitions": len(self.partitions),
            "lost_bits": sum(b.lost_bits for b in bitmaps),
            "utilization": min((b.utilization() for b in bitmaps), default=1.0),
        }


def build_index(partition_values, constraint, column="value", *, store="bitmap",
                shard_size_bits=DEFAULT_SHARD_BITS):
    """Discover a TableIndex from per-partition column arrays.

    NUC duplicate detection is global across partitions (a duplicate pair
    spanning two partitions patches both rows); the patch bits are then
    distributed to the per-partition indexes. NSC discovery is partition
    local and runs on the shared worker pool of default_threads() threads.
    """
    sizes = [len(v) for v in partition_values]
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    if constraint.kind is ConstraintKind.NEARLY_UNIQUE:
        full = np.concatenate(partition_values) if partition_values else np.zeros(0, np.int64)
        patches = nuc_patch_rows(full)
        parts = []
        for p, size in enumerate(sizes):
            lo, hi = np.searchsorted(patches, [offsets[p], offsets[p + 1]])
            parts.append(PatchIndex.from_patches(
                constraint, patches[lo:hi] - offsets[p], size,
                store=store, shard_size_bits=shard_size_bits))
        return TableIndex(column, constraint, parts)

    def build_one(values):
        return discover_nsc(values, constraint.order, store=store,
                            shard_size_bits=shard_size_bits)

    nthreads = default_threads()
    if nthreads <= 1 or len(partition_values) <= 1:
        parts = [build_one(v) for v in partition_values]
    else:
        parts = list(_worker_pool(nthreads).map(build_one, partition_values))
    return TableIndex(column, constraint, parts)
