"""Minimal columnar table storage.

Tables hold int64 (and fixed-width bytes) columns split into partitions.
Global rowIDs are dense, assigned by partition order then position. Each
partition stores its rows in fixed-capacity chunks, the sharded bitmap's
layout. An int64 column probed for value sets gets, on its first probe,
per-block min/max (zone maps) on each chunk's block grid and blocked
Bloom filters on two levels, one per chunk and one per sub-block, whose
bounds move with deletes like the bitmap's shard starts; a probe reads
only the sub-blocks that may hold a probed value. Other columns carry
neither. Inserts append to the last partition's chunks. Deletes compact
rows immediately, inside the chunks that hold them, shifting all
subsequent rowIDs down.
"""

import ctypes
import json
import struct
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from . import _native
from ._native import address, pointers

MAGIC = b"PDX1"
DEFAULT_BLOCK_SIZE = 4096
# chunk capacity in zone-map blocks: a delete rewrites one chunk of
# CHUNK_BLOCKS * block_size rows, not the whole partition. In a 16/8/4/2/1
# sweep, 10-row deletes cost about half as much at 4 as at 16 and
# 1000-row statements no more; 2 and 1 cut deletes further, but at 2 the
# benchmark's low-e queries read slower (see ROADMAP item 4(a))
CHUNK_BLOCKS = 4
# block membership filter size: 16 bits per row keep the false-positive
# rate of a full filter near 0.5% at 4 bits per key
FILTER_BITS_PER_ROW = 16
# rows of a filter sub-block at most; zone-map blocks of fewer rows make
# sub-blocks of one block each. In a 128/256/512/1024 sweep (CHANGES.md),
# 128 and 256 probed alike and 512 and 1024 read more rows for no less work
FILTER_SUB_ROWS = 256
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # the kernels' multiplicative hash


def sort_unique(values):
    """Sorted distinct values, like np.unique.

    One sort plus a neighbour comparison. Under numpy 2.x a flagless
    np.unique takes a hash path that is up to 20x slower on int64 columns
    of 10^5-10^6 rows, so every distinct computation in the engine goes
    through this function instead.
    """
    s = np.sort(np.asarray(values))
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


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
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    values = np.ascontiguousarray(values)
    out = np.empty(len(values), dtype=np.int64)
    count = lib.pi_in_positions(address(values), len(values), address(keys),
                                len(keys), address(out))
    if count < 0:
        raise MemoryError("membership filter allocation failed")
    return out[:count]


def filter_hash(values, log2_words):
    """(word, pattern) of each int64 value in a filter of 2^log2_words
    words: the blocked Bloom hash of the kernels' filters."""
    h = np.asarray(values, dtype=np.int64).view(np.uint64) * _GOLDEN
    shift = 64 - log2_words
    words = (h >> np.uint64(shift)).astype(np.int64)
    pattern = np.zeros(len(h), dtype=np.uint64)
    for j in range(1, 5):
        bit = (h >> np.uint64(shift - 6 * j)) & np.uint64(63)
        pattern |= np.uint64(1) << bit
    return words, pattern


def _filter_size_log2(rows):
    """log2 of the words of a filter over rows rows: FILTER_BITS_PER_ROW
    bits per row in a power of two words, at least 2; the hash takes at
    most 40 bits for the word number."""
    words = -(-rows * FILTER_BITS_PER_ROW // 64)
    return min(max(1, (words - 1).bit_length()), 40)


def select(pairs, spans, nrows, bits, take, base=0):
    """Patch-split select: write the rows of a partition's spans whose bit
    is set (take) or clear (skip), in order, and return their count.

    spans is an (r, 3) int64 array of (lo, hi, at), laid out as
    ``Partition.span_table``: the partition rows [lo, hi), whose row lo is
    item at of each source. Spans ascend without overlap inside [0,
    nrows). bits is a ``ShardedBitmap`` of the partition's nrows rows, or
    None for a bit set without set bits. Each (dst, src) pair copies from
    the 1-D array src into dst, or writes the selected row numbers plus
    base (rowIDs, int64) when src is None; each dst holds exactly the
    selected rows.

    The compiled kernel (``pi_select``) walks the spans and the shards'
    words together, without unpacking the bits; the numpy reference
    unpacks each shard's live bits into a keep mask and indexes each span
    with it. Malformed spans or bit set, or bits of another row count,
    raise ValueError before any dst is written; a dst of another length
    than the selected rows raises ValueError.
    """
    spans = np.ascontiguousarray(spans, dtype=np.int64).reshape(-1, 3)
    return _select(pairs, spans, _reach(spans), nrows, bits, take, base)


def _reach(spans):
    """The items that (r, 3) spans read of each source: [0, reach)."""
    if not len(spans):
        return 0
    return int((spans[:, 2] + spans[:, 1] - spans[:, 0]).max())


def _select(pairs, spans, reach, nrows, bits, take, base):
    """``select`` over a contiguous (r, 3) int64 spans array whose reach
    (``_reach``) is known."""
    cap = min(len(dst) for dst, _ in pairs)
    for dst, src in pairs:
        dtype = np.dtype(np.int64) if src is None else src.dtype
        if (dst.dtype != dtype or dst.ndim != 1 or len(dst) != cap
                or not dst.flags.c_contiguous or src is not None
                and (src.ndim != 1 or not src.flags.c_contiguous
                     or reach > len(src))):
            raise ValueError("select needs contiguous 1-D arrays of one "
                             "dtype and length, and spans inside src")
    if bits is not None:
        words, starts = bits.words, bits.starts
        if (words.dtype != np.uint64 or starts.dtype != np.int64
                or words.ndim != 1 or starts.ndim != 1
                or not words.flags.c_contiguous
                or not starts.flags.c_contiguous):
            raise ValueError("a bit set is contiguous uint64 words and "
                             "int64 start values")
    lib = _native.lib
    if lib is None:
        count = _select_reference(pairs, spans.tolist(), nrows, bits, take,
                                  base, cap)
    else:
        # one block of the kernel's dst pointers, src pointers and item
        # sizes, each ncols long
        k = len(pairs)
        block = np.array([address(d) for d, _ in pairs]
                         + [0 if s is None else address(s) for _, s in pairs]
                         + [d.itemsize for d, _ in pairs], dtype=np.uint64)
        at = address(block)
        if bits is None:
            bitset = (None, 0, None, 0, 0, nrows)
        else:
            bitset = (address(words), len(words), address(starts),
                      len(starts), bits.shard_size_bits >> 6,
                      bits.logical_len)
        args = _native.SelectArgs(address(spans), len(spans), nrows,
                                  *bitset, bool(take), base, at, at + 8 * k,
                                  at + 16 * k, k, cap)
        count = lib.pi_select(args)
    if count == -1:
        raise ValueError("select needs ascending spans inside the partition "
                         "and a well-formed bit set of its rows")
    if count != cap:
        raise ValueError("select rows do not fill the output: the bit set "
                         "has bits set past its shards' live bits")
    return count


def _select_reference(pairs, triples, nrows, bits, take, base, cap):
    """``pi_select`` in numpy, with its return codes."""
    prev = 0
    for lo, hi, at in triples:
        if lo < prev or hi < lo or hi > nrows or at < 0:
            return -1
        prev = hi
    keep = np.zeros(nrows, dtype=bool)
    if bits is not None:
        starts, wps = bits.starts, bits.shard_size_bits >> 6
        live = np.diff(starts, append=bits.logical_len)
        if (bits.logical_len != nrows or starts[0] != 0 or live.min() < 0
                or live.max() > 64 * wps
                or (len(starts) - 1) * wps + (live[-1] + 63) // 64
                > len(bits.words)):
            return -1
        unpacked = np.unpackbits(bits.words.view(np.uint8), bitorder="little")
        for s, (first, n) in enumerate(zip(starts.tolist(), live.tolist())):
            keep[first:first + n] = unpacked[64 * wps * s:64 * wps * s + n]
    if not take:
        keep = ~keep
    if sum(int(np.count_nonzero(keep[lo:hi])) for lo, hi, _ in triples) > cap:
        return -2
    j = 0
    for lo, hi, at in triples:
        m = keep[lo:hi]
        n = int(np.count_nonzero(m))
        for dst, src in pairs:
            rows = (np.arange(lo + base, hi + base) if src is None
                    else src[at:at + hi - lo])
            dst[j:j + n] = rows[m]
        j += n
    return j


def route_rows(rowids, sizes, what):
    """Split global rowIDs over partitions of the given row counts, in
    rowID order.

    Yields (partition number, selection, partition rows) for each
    partition that holds some of the int64 rowIDs, in ascending partition
    order; the selection picks that partition's rowIDs in their order: all
    of them (a slice) when one partition holds every rowID, and otherwise
    a boolean mask. A rowID outside [0, sum(sizes)) raises IndexError
    naming what the rows are for.
    """
    if not rowids.size:
        return
    ends = list(accumulate(sizes))
    lo, hi = int(rowids.min()), int(rowids.max())
    if lo < 0 or hi >= ends[-1]:
        raise IndexError(f"{what} rowID out of range")
    first = bisect_right(ends, lo)
    if first == bisect_right(ends, hi):  # as for every insert's rows
        yield first, slice(None), rowids - (ends[first] - sizes[first])
        return
    offsets = np.array([0] + ends)
    part = np.searchsorted(offsets, rowids, side="right") - 1
    for p in np.flatnonzero(np.bincount(part)).tolist():
        sel = part == p
        yield p, sel, rowids[sel] - offsets[p]


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
    """Column rows in fixed-capacity chunks.

    The sharded bitmap's layout applied to storage. Each column is one
    (slots, capacity) buffer: chunk k holds its counts[k] rows at the front
    of buffer row k, the chunks follow each other in rowID order, and the
    rows of a chunk start where the rows of the chunks before it end. The
    capacity is CHUNK_BLOCKS blocks, so every chunk has its own block
    grid. A delete compacts the touched chunks only, and an append fills
    the last chunk and then opens new ones. Blocks are numbered on that
    grid: block j of chunk k is block k * CHUNK_BLOCKS + j.

    Once a column has filters, each chunk is also cut into nsub
    sub-blocks of about sub_rows rows, whose bounds move like the bitmap's
    shard starts: ``sub_ends[k]`` holds the ends of chunk k's sub-blocks,
    non-decreasing up to the chunk's row count, and sub-block s holds the
    rows from the end of sub-block s - 1 on. A delete lowers the ends by
    the deleted rows below them, so every kept row stays in its chunk and
    its sub-block; an append puts the row at chunk row r into sub-block
    r // sub_rows, or into the sub-block of the chunk's last row when that
    one lies further on. Without filters ``sub_ends`` is None.

    Only the int64 columns a probe has read have block summaries, built
    by ``filter_words``, so ``zones`` and ``filters`` have the same keys:
    (slots, CHUNK_BLOCKS) min and max arrays, and a pair of blocked Bloom
    filter arrays, one filter per chunk, (slots, words), and one per
    sub-block, (slots, words, nsub), word by word, so that one word of
    every sub-block of a chunk lies together; appends never resize them.
    Every
    mutator keeps the zone maps exact and every live row's value in its
    chunk's and its sub-block's filter: appends and modifies add the new
    values, a delete adds none, and a condense rebuilds the merged chunk's
    filters. Only a condense clears filter bits, so a deleted or
    overwritten value leaves stale bits until then, and a filter may
    answer "maybe" wrongly but never "no" wrongly.
    """

    def __init__(self, columns, block_size=DEFAULT_BLOCK_SIZE):
        """Copy whole-partition arrays into chunks; the caller's arrays are
        never written."""
        self.block_size = block_size
        self.capacity = CHUNK_BLOCKS * block_size
        columns = {c: np.asarray(a) for c, a in columns.items()}
        n = len(next(iter(columns.values()))) if columns else 0
        nchunks = -(-n // self.capacity)
        self.counts = np.full(nchunks, self.capacity, dtype=np.int64)
        if nchunks:
            self.counts[-1] = n - (nchunks - 1) * self.capacity
        self.chunks = {}
        for c, a in columns.items():
            self.chunks[c] = np.empty((nchunks, self.capacity), dtype=a.dtype)
            self.chunks[c].reshape(-1)[:n] = a
        self.sub_rows = min(FILTER_SUB_ROWS, block_size)
        self.nsub = -(-self.capacity // self.sub_rows)
        # the sub-block ends of a chunk cut on the sub_rows grid
        self.grid = np.arange(1, self.nsub + 1) * self.sub_rows
        self.sub_ends = None  # cut with the first filters, see filter_words
        self.chunk_log2 = _filter_size_log2(self.capacity)
        self.sub_log2 = _filter_size_log2(self.sub_rows)
        self.zones = {}  # built on first request, see filter_words
        self.filters = {}
        self._args = None  # see _kernel_args
        self._recount()

    def _recount(self):
        """Refresh what the mutators read that follows from the chunk row
        counts: the row count, each chunk's end row and the shift from a
        partition row to its position in the flattened buffers."""
        self.ends = self.counts.cumsum()
        self.nrows = int(self.ends[-1]) if self.nchunks else 0
        self.shift = (np.arange(0, self.nchunks * self.capacity, self.capacity)
                      - self.ends + self.counts)
        self._spans = None  # see span_table

    @property
    def nchunks(self):
        return len(self.counts)

    @property
    def live(self):
        """(nchunks, CHUNK_BLOCKS) mask of the blocks that hold rows."""
        return np.arange(CHUNK_BLOCKS) * self.block_size < self.counts[:, None]

    def int_columns(self):
        return [c for c, a in self.chunks.items() if a.dtype == np.int64]

    def chunk(self, column, k):
        """The live rows of chunk k (a view)."""
        return self.chunks[column][k, :self.counts[k]]

    def chunk_minmax(self, column, k):
        """Zone maps of chunk k's live blocks (views)."""
        nblocks = -(-int(self.counts[k]) // self.block_size)
        return tuple(z[k, :nblocks] for z in self.zones[column])

    def filter_words(self, column):
        """(chunk filters, sub-block filters) of an int64 column: an
        (nchunks, words) array whose row k is chunk k's filter and an
        (nchunks, words, nsub) array whose [k, :, s] is the filter of
        sub-block s of chunk k.

        The first request builds the column's block summaries from the
        chunk buffers, its zone maps first and then its filters; from then
        on every mutator keeps both up to date.
        """
        if column not in self.filters:
            if self.chunks[column].dtype != np.int64:  # the kernels read int64
                raise ValueError(f"block summaries need an int64 column, "
                                 f"not {column!r}")
            slots = len(self.chunks[column])
            if self.sub_ends is None:
                self.sub_ends = np.zeros((slots, self.nsub), np.int64)
                self.sub_ends[:self.nchunks] = np.minimum(
                    self.grid, self.counts[:, None])
            self.zones[column] = tuple(np.zeros((slots, CHUNK_BLOCKS), np.int64)
                                       for _ in range(2))
            self.filters[column] = (
                np.zeros((slots, 1 << self.chunk_log2), np.uint64),
                np.zeros((slots, 1 << self.sub_log2, self.nsub), np.uint64))
            self._args = None  # the kernels' argument block names them
            self.refresh_zones([column], np.flatnonzero(self.live))
            self._fill_filters([column], range(self.nchunks))
        return tuple(f[:self.nchunks] for f in self.filters[column])

    def _filter_rows(self, pos, columns):
        """Add the rows at flattened buffer positions pos, live rows, to
        their chunk's and their sub-block's filters of the given probed
        columns: one ``pi_filter_rows`` call per column, which checks the
        positions first, or in numpy a binary search of each row's
        sub-block and ``filter_hash``."""
        pos = np.ascontiguousarray(pos, dtype=np.int64)
        lib = _native.lib
        if lib is not None:
            for c in columns:
                # the kernel checks the positions before it writes
                if lib.pi_filter_rows(
                        self._kernel_args(), list(self.zones).index(c),
                        address(self.counts), self.nchunks, address(pos),
                        len(pos)) < 0:
                    raise ValueError("filter rows must be live rows")
            return
        if not columns:
            return
        cap, nsub = self.capacity, self.nsub
        chunk = pos // cap
        # sub-block s of each row: the ends, offset per chunk so that they
        # ascend over all chunks, counted up to the row
        ends = self.sub_ends[:self.nchunks] + (
            np.arange(self.nchunks) * (cap + 1))[:, None]
        sub = (np.searchsorted(ends.reshape(-1), pos + chunk, side="right")
               - chunk * nsub)
        for c in columns:
            chunk_f, sub_f = self.filters[c]
            values = self.chunks[c].reshape(-1)[pos]
            words, pattern = filter_hash(values, self.chunk_log2)
            np.bitwise_or.at(chunk_f, (chunk, words), pattern)
            words, pattern = filter_hash(values, self.sub_log2)
            np.bitwise_or.at(sub_f, (chunk, words, sub), pattern)

    def _fill_filters(self, columns, chunks):
        """Rebuild the given probed columns' filters of the given chunks
        from their live rows, which clears their stale bits."""
        chunks = np.asarray(chunks, dtype=np.int64)
        for c in columns:
            for f in self.filters[c]:
                f[chunks] = 0
        counts = self.counts[chunks]
        # every live row's buffer position, chunk by chunk
        pos = (np.repeat(chunks * self.capacity - counts.cumsum() + counts,
                         counts) + np.arange(counts.sum()))
        self._filter_rows(pos, columns)

    @property
    def columns(self):
        """Whole-partition arrays, read-only.

        Views of the chunk buffers while every chunk but the last is full
        (as after a load), copies otherwise; a view changes with later
        updates. For index discovery and inspection only: no query or
        update path reads it.
        """
        contiguous = bool((self.counts[:-1] == self.capacity).all())
        out = {}
        for c, buf in self.chunks.items():
            if contiguous:
                a = buf[:self.nchunks].reshape(-1)[:self.nrows]
            else:
                a = np.concatenate([self.chunk(c, k) for k in range(self.nchunks)])
            a.flags.writeable = False
            out[c] = a
        return out

    def positions(self, local):
        """Positions in the flattened chunk buffers of partition rows."""
        # past about a thousand ascending rows, cutting them at the chunk
        # ends costs less than a binary search per row
        if len(local) > 1024 and (local[1:] >= local[:-1]).all():
            per_chunk = np.diff(np.searchsorted(local, self.ends), prepend=0)
            return local + np.repeat(self.shift, per_chunk)
        return local + self.shift[np.searchsorted(self.ends, local, side="right")]

    def span_table(self):
        """(spans, reach): spans is an (r, 3) int64 array of (lo, hi, at),
        each chunk's partition rows [lo, hi), whose row lo is item at of
        the flattened buffers, and the spans read [0, reach) of each
        buffer. Kept until the row counts change, so it is not to be
        written; every scan of the partition hands it to its select."""
        if self._spans is None:
            spans = np.column_stack((self.ends - self.counts, self.ends,
                                     np.arange(self.nchunks) * self.capacity))
            spans = np.ascontiguousarray(spans[self.counts > 0])
            self._spans = spans, _reach(spans)
        return self._spans

    def take(self, column, local):
        """Values of one column at persisted partition rows."""
        return self.chunks[column].reshape(-1)[self.positions(local)]

    def _blocks_live(self, blocks):
        """Whether the int64 array blocks holds strictly ascending live
        blocks, by the chunk row counts."""
        return bool((np.diff(blocks) > 0).all()
                    and np.isin(blocks, np.flatnonzero(self.live)).all())

    def refresh_zones(self, columns, blocks):
        """Recompute the zone maps of the given int64 columns in the given
        blocks, a strictly ascending array of live block numbers, from
        their live rows; every mutator calls this. A list that does not
        ascend, repeats a block or names a block that is not live raises
        ValueError before any zone map changes. One ``pi_zone_refresh``
        call per column; the numpy reference reduces each run of
        consecutive blocks of one chunk where its rows lie.
        """
        bad = ValueError("zone blocks must be strictly ascending live "
                         "blocks of the partition")
        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        if blocks.ndim != 1:
            raise bad
        lib = _native.lib
        if lib is not None:
            for c in columns:
                # the kernel checks the blocks before it writes
                if lib.pi_zone_refresh(
                        self._kernel_args(), list(self.zones).index(c),
                        address(self.counts), self.nchunks, address(blocks),
                        len(blocks)) < 0:
                    raise bad
            return
        if not self._blocks_live(blocks):
            raise bad
        cut = np.flatnonzero((np.diff(blocks) != 1)
                             | (blocks[1:] % CHUNK_BLOCKS == 0)) + 1
        bs = self.block_size
        for run in np.split(blocks, cut) if len(blocks) else ():
            k, first = divmod(int(run[0]), CHUNK_BLOCKS)
            end = min((first + len(run)) * bs, int(self.counts[k]))
            for c in columns:
                rows = self.chunks[c][k, first * bs:end]
                for zone, values in zip(self.zones[c], _block_minmax(rows, bs)):
                    zone[k, first:first + len(values)] = values

    def _refresh_span(self, start, end):
        """``refresh_zones`` of every zone column over the blocks that hold
        the flattened buffer positions [start, end), live rows of one or
        more chunks."""
        bs = self.block_size
        self.refresh_zones(self.zones, np.arange(start // bs, -(-end // bs)))

    def _grow(self, nchunks):
        """Open empty chunks up to nchunks; the buffers double their slots
        when they run out, so the copy of the old chunks is amortized."""
        slots = len(next(iter(self.chunks.values())))
        if nchunks > slots:
            slots = max(nchunks, 2 * slots)

            def grown(buf):
                big = np.zeros((slots,) + buf.shape[1:], buf.dtype)
                big[:self.nchunks] = buf[:self.nchunks]
                return big

            self.chunks = {c: grown(b) for c, b in self.chunks.items()}
            if self.sub_ends is not None:
                self.sub_ends = grown(self.sub_ends)
            self.zones = {c: tuple(grown(z) for z in zone)
                          for c, zone in self.zones.items()}
            self.filters = {c: tuple(grown(f) for f in pair)
                            for c, pair in self.filters.items()}
            self._args = None
        self.counts = np.concatenate(
            [self.counts, np.zeros(nchunks - self.nchunks, np.int64)])

    def append(self, rows):
        """Append rows (column name to values, every column given): fill the
        last chunk's free capacity, then open new chunks."""
        n = len(next(iter(rows.values())))
        if not n:
            return
        cap = self.capacity
        first = self.nchunks
        if first and self.counts[-1] < cap:
            first -= 1
        had = int(self.counts[first]) if first < self.nchunks else 0
        start = first * cap + had
        self._grow(-(-(start + n) // cap))
        for c, buf in self.chunks.items():
            buf.reshape(-1)[start:start + n] = rows[c]
        self.counts[first:] = cap
        self.counts[-1] = start + n - (self.nchunks - 1) * cap
        ends = self.sub_ends
        if ends is not None:
            # sub-block s of the first chunk takes the new rows below its
            # grid end, from the sub-block of the chunk's last row on (a new
            # chunk has only empty ones); the chunks opened after it get
            # the grid
            tail = ends[first, int(ends[first].searchsorted(had)):]
            np.maximum(self.grid[self.nsub - len(tail):], had, out=tail)
            np.minimum(tail, self.counts[first], out=tail)
            np.minimum(self.grid, self.counts[first + 1:, None],
                       out=ends[first + 1:self.nchunks])
        self._refresh_span(start, start + n)
        self._filter_rows(np.arange(start, start + n), list(self.filters))
        self._recount()

    def modify_rows(self, local, updates):
        """Overwrite partition rows in place; updates maps column name to
        the rows' new values.

        A probed column's zone maps stay exact in O(rows): each touched
        block's min and max widen by the values the rows now hold, and
        only a block where an overwritten value was its min or max is
        re-scanned (``_widen_zones``).
        """
        pos = self.positions(local)
        probed = [c for c in updates if c in self.zones]
        old = [self.chunks[c].reshape(-1)[pos] for c in probed]
        for c, vals in updates.items():
            self.chunks[c].reshape(-1)[pos] = vals
        if probed:
            blocks = pos // self.block_size
            for c, was in zip(probed, old):
                stale = self._widen_zones(c, blocks, was, pos)
                if len(stale):
                    self.refresh_zones([c], stale)
            self._filter_rows(pos, probed)

    def _widen_zones(self, column, blocks, old, pos):
        """Widen the zone maps of a probed column in the given blocks by
        the values now at the buffer positions pos, which held the values
        old before the write; returns the ascending blocks whose min or
        max an old value was, the only ones that may now be too wide.

        The new values are read back from the buffers, so a position given
        twice widens its block by the value it kept, not by the one it
        overwrote.
        """
        mins, maxs = (z.reshape(-1) for z in self.zones[column])
        stale = blocks[(old == mins[blocks]) | (old == maxs[blocks])]
        new = self.chunks[column].reshape(-1)[pos]
        np.minimum.at(mins, blocks, new)
        np.maximum.at(maxs, blocks, new)
        return sort_unique(stale)

    def delete_rows(self, local):
        """Remove the strictly ascending partition rows local.

        Rows outside [0, nrows) raise IndexError and rows out of order or
        repeated ValueError, before any chunk changes. Each touched chunk
        closes the gaps in every column, in place, recomputes the zone
        maps of its live blocks from the block of its first deleted row
        on, and lowers its sub-block ends by the deleted rows below them;
        no filter changes. Then neighbours that fit one chunk are
        condensed. With the compiled kernels that is one call
        (``pi_delete_rows``) for all touched chunks, whose zone-map loop
        ``pi_zone_refresh`` shares; the reference runs ``np.delete``,
        ``refresh_zones`` and a ``np.searchsorted`` per chunk.
        """
        local = np.ascontiguousarray(local, dtype=np.int64)
        lib = _native.lib
        if lib is not None:
            rc = lib.pi_delete_rows(self._kernel_args(), address(local),
                                    len(local), address(self.counts),
                                    self.nchunks)
        else:
            rc = self._delete_rows_reference(local)
        if rc == -2:
            raise IndexError("delete row out of range")
        if rc < 0:
            raise ValueError("delete rows must ascend without repeats")
        self._condense()
        self._recount()

    def _delete_rows_reference(self, local):
        """``pi_delete_rows`` in numpy, with its return codes."""
        if local.size and (local[0] < 0 or local[-1] >= self.nrows):
            return -2
        if (local[1:] <= local[:-1]).any():
            return -1
        owner = np.searchsorted(self.ends, local, side="right")
        for k in sort_unique(owner).tolist():
            rows = local[owner == k] - (self.ends[k] - self.counts[k])
            n = int(self.counts[k])
            for buf in self.chunks.values():
                buf[k, :n - len(rows)] = np.delete(buf[k, :n], rows)
            self.counts[k] = n - len(rows)
            at = k * self.capacity
            self._refresh_span(at + int(rows[0]), at + int(self.counts[k]))
            if self.sub_ends is not None:
                self.sub_ends[k] -= np.searchsorted(rows, self.sub_ends[k])
        return 0

    def _kernel_args(self):
        """The ``PartitionArgs`` block that the partition kernels (the
        delete, the zone refresh and the probe plan) read for the current
        buffers, sub-block ends, zone maps and filters, built on first use
        after any of them was (re)allocated; it holds the address arrays
        it points to."""
        if self._args is None:
            bufs = list(self.chunks.values())
            names = list(self.chunks)
            zones = list(self.zones)
            held = (pointers(bufs),
                    np.array([b.itemsize for b in bufs], dtype=np.int64),
                    pointers([self.zones[c][0] for c in zones]),
                    pointers([self.zones[c][1] for c in zones]),
                    np.array([names.index(c) for c in zones], dtype=np.int64),
                    pointers([self.filters[c][0] for c in zones]),
                    pointers([self.filters[c][1] for c in zones]))
            self._args = _native.PartitionArgs(
                *(address(a) for a in held[:2]), len(bufs),
                *(address(a) for a in held[2:]), len(zones),
                None if self.sub_ends is None else address(self.sub_ends),
                self.nsub, self.chunk_log2, self.sub_log2, self.capacity,
                self.block_size, CHUNK_BLOCKS)
            self._held = held
        return self._args

    def probe(self, column, keys, base=0):
        """Semijoin probe of an int64 column: (rows read, rowIDs, values)
        of the rows whose value occurs in keys, in row order.

        keys is a strictly ascending int64 array (``sort_unique``); rowIDs
        are partition rows plus base. In each chunk, the keys inside its
        zone, from the least min to the greatest max of its live blocks,
        are tested against the chunk's filter, the keys that pass against
        its sub-blocks' filters, and only the sub-blocks where one passes
        are read. The first call builds the column's block summaries
        (``filter_words``). The compiled plan (``pi_probe_plan``) finds those sub-blocks and
        their row count, which sizes the outputs of the compiled read
        (``pi_probe``); the numpy reference tests every key against every
        chunk and sub-block and runs ``np.isin`` over the kept rows.
        """
        if column not in self.filters:
            self.filter_words(column)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        lib = _native.lib
        if lib is None:
            return self._probe_reference(column, keys, base)
        ranges = np.empty((self.nchunks * self.nsub, 3), dtype=np.int64)
        rows = ctypes.c_int64()
        nranges = lib.pi_probe_plan(
            self._kernel_args(), list(self.zones).index(column),
            address(self.counts), self.nchunks, address(keys), len(keys),
            address(ranges), ctypes.byref(rows))
        if nranges < 0:
            raise MemoryError("probe hash allocation failed")
        if not nranges:  # no sub-block to read
            return 0, np.zeros(0, np.int64), np.zeros(0, np.int64)
        ids = np.empty(rows.value, dtype=np.int64)
        vals = np.empty(rows.value, dtype=np.int64)
        count = lib.pi_probe(
            address(self.chunks[column]), address(ranges), nranges,
            address(keys), len(keys), base, address(ids), address(vals))
        if count < 0:
            raise MemoryError("probe filter allocation failed")
        return rows.value, ids[:count], vals[:count]

    def _probe_reference(self, column, keys, base):
        """``pi_probe_plan`` and ``pi_probe`` in numpy."""
        n, cap = self.nchunks, self.capacity
        chunk_f, sub_f = self.filter_words(column)
        live = self.live
        mins, maxs = self.zones[column][0][:n], self.zones[column][1][:n]
        lo = np.where(live, mins, np.iinfo(np.int64).max).min(axis=1)
        hi = np.where(live, maxs, np.iinfo(np.int64).min).max(axis=1)
        inside = (lo[:, None] <= keys) & (keys <= hi[:, None])
        words, pattern = filter_hash(keys, self.chunk_log2)
        passes = inside & ((chunk_f[:, words] & pattern) == pattern)
        words, pattern = filter_hash(keys, self.sub_log2)
        pattern = pattern[:, None]
        ends = self.sub_ends[:n]
        starts = np.concatenate([np.zeros((n, 1), np.int64), ends[:, :-1]], 1)
        kept = ((((sub_f[:, words] & pattern) == pattern)
                 & passes[:, :, None]).any(axis=1) & (ends > starts))
        k, s = np.nonzero(kept)
        lo, size = k * cap + starts[k, s], ends[k, s] - starts[k, s]
        pos = np.repeat(lo - size.cumsum() + size, size) + np.arange(size.sum())
        vals = self.chunks[column].reshape(-1)[pos]
        hit = np.isin(vals, keys)
        pos = pos[hit]
        return int(size.sum()), base + pos - self.shift[pos // cap], vals[hit]

    def _condense(self):
        """Merge neighbouring chunks that fit one capacity; drop a lone
        empty chunk. Afterwards no two neighbours fit one chunk.

        Every mutator leaves no two neighbours that fit one chunk, and a
        delete only lowers the counts of the chunks it touched, so the
        pairs that fit now all lie next to a touched chunk. One vectorized
        test of the neighbour pairs finds them; the merges then run from
        each such pair, left to right, and a merged chunk takes in its
        next neighbour too while they fit. A merged chunk's sub-blocks are
        cut on the grid again and its filters rebuilt.
        """
        before = self.nchunks
        c = self.counts
        merged = k = 0  # no pair left of chunk k fits
        for pair in np.flatnonzero(c[:-1] + c[1:] <= self.capacity).tolist():
            k = max(k, pair - merged)
            joined = merged
            while k + 1 < self.nchunks:
                a, b = int(self.counts[k]), int(self.counts[k + 1])
                if a + b > self.capacity:
                    break
                n = self.nchunks
                for buf in self.chunks.values():  # chunk k + 1 joins chunk k
                    buf[k, a:a + b] = buf[k + 1, :b]
                    buf[k + 1:n - 1] = buf[k + 2:n]
                if self.sub_ends is not None:
                    self.sub_ends[k + 1:n - 1] = self.sub_ends[k + 2:n]
                for zone in self.zones.values():
                    for z in zone:
                        z[k + 1:n - 1] = z[k + 2:n]
                for pair_f in self.filters.values():
                    for f in pair_f:
                        f[k + 1:n - 1] = f[k + 2:n]
                self.counts[k] = a + b
                self.counts = np.delete(self.counts, k + 1)
                self._refresh_span(k * self.capacity + a,
                                   k * self.capacity + a + b)
                merged += 1
            if merged > joined and self.sub_ends is not None:
                self.sub_ends[k] = np.minimum(self.grid, self.counts[k])
                self._fill_filters(list(self.filters), [k])
        if self.nchunks == 1 and not self.counts[0]:
            self.counts = self.counts[:0]
        if self.nchunks < before and self.sub_ends is not None:
            # a reopened chunk starts empty
            self.sub_ends[self.nchunks:before] = 0
            for pair_f in self.filters.values():
                for f in pair_f:
                    f[self.nchunks:before] = 0


class ColumnTable:
    def __init__(self, schema, partitions, block_size=DEFAULT_BLOCK_SIZE):
        self.schema = schema  # list of (name, numpy dtype str)
        self.partitions = partitions
        self.block_size = block_size

    @classmethod
    def from_partitions(cls, partition_columns, block_size=DEFAULT_BLOCK_SIZE):
        first = partition_columns[0]
        schema = [(name, np.asarray(arr).dtype.str) for name, arr in first.items()]
        parts = [Partition(cols, block_size) for cols in partition_columns]
        return cls(schema, parts, block_size)

    @property
    def column_names(self):
        return [name for name, _ in self.schema]

    @property
    def row_count(self):
        return sum(p.nrows for p in self.partitions)

    def partition_offsets(self):
        """Global rowID of the first row of each partition (plus the end)."""
        sizes = [p.nrows for p in self.partitions]
        return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    def _check_columns(self, columns):
        names = self.column_names
        for c in columns:
            if c not in names:
                raise KeyError(f"unknown column {c!r}")

    def _check_values(self, values, n, what):
        """values as arrays, checked to map known columns to n values each."""
        values = {c: np.asarray(v) for c, v in values.items()}
        self._check_columns(values)
        for c, v in values.items():
            if v.shape != (n,):
                raise ValueError(f"{what} of {n} rows got values of shape "
                                 f"{v.shape} for column {c!r}")
        return values

    # -- scans ---------------------------------------------------------------

    def column_dtypes(self, columns=None):
        """Column name to numpy dtype, of the given columns or of all; an
        unknown column raises KeyError."""
        columns = list(columns) if columns is not None else self.column_names
        self._check_columns(columns)
        schema = dict(self.schema)
        return {c: np.dtype(schema[c]) for c in columns}

    def scan(self, columns=None, where=None):
        """Materialize rows as (rowids, column dict).

        where is an optional patch-split filter (see ``scan_plan``). The
        scan sizes the output arrays by the plan's row count and writes
        each partition's rows and rowIDs straight into their slice
        (``scan_into``).
        """
        dtypes = self.column_dtypes(columns)
        plan = self.scan_plan(where)
        ids = np.empty(plan[2], dtype=np.int64)
        out = {c: np.empty(plan[2], dtype=d) for c, d in dtypes.items()}
        self.scan_into(plan, ids, out)
        return ids, out

    def scan_plan(self, where=None):
        """(take, parts, rows): what a scan with the filter where reads.

        where is None, for every row, or a patch-split filter. Each form
        holds one entry per partition, and a None entry leaves that
        partition unread:

        - ("skip", bits): every row of each partition p whose bit is clear
          in bits[p], a ``ShardedBitmap`` of the partition's rows, such as
          a patch store's (``PatchIndex.patch_bits``);
        - ("take", bits): the rows whose bit is set.

        An entry () stands for a bit set without set bits: "skip" reads
        every row of that partition. Any other filter, a list whose length
        is not the partition count, an entry that is no bit set and a bit
        set of another row count raise ValueError. parts lists (partition,
        rowID of its first row, rows kept, bit set or None) for each
        partition with rows to keep, in order; rows is their sum, known
        from the bit sets' popcounts before any row is read.
        """
        if where is None:
            where = ("skip", [()] * len(self.partitions))
        if len(where) != 2 or where[0] not in ("skip", "take"):
            raise ValueError(f"unknown scan filter {where!r}")
        kind, rows = where
        if len(rows) != len(self.partitions):
            raise ValueError(f"{kind} filter needs one entry per partition")
        parts, total, part_lo = [], 0, 0
        for p, bits in zip(self.partitions, rows):
            if bits is not None:
                if isinstance(bits, tuple) and not bits:
                    bits, marked = None, 0
                elif getattr(bits, "logical_len", None) != p.nrows:
                    raise ValueError(f"{kind} filter needs a bit set of "
                                     f"each partition's rows")
                else:
                    marked = bits.count_set()
                n = marked if kind == "take" else p.nrows - marked
                if n:
                    parts.append((p, part_lo, n, bits))
                total += n
            part_lo += p.nrows
        return kind == "take", parts, total

    def scan_into(self, plan, ids, cols):
        """Write the rows of a ``scan_plan`` to the front of ids (their
        rowIDs, or None for none) and of the arrays of cols (column name
        to array); each holds at least the plan's rows and the column's
        dtype. Returns the rows written: one patch-split select
        (``select``) per partition writes straight into each slice."""
        take, parts, _ = plan
        o = 0
        for p, base, n, bits in parts:
            pairs = [(a[o:o + n], p.chunks[c].reshape(-1))
                     for c, a in cols.items()]
            if ids is not None:
                pairs.append((ids[o:o + n], None))
            if pairs:
                _select(pairs, *p.span_table(), p.nrows, bits, take, base)
            o += n
        return o

    def probe(self, column, values):
        """Semijoin probe: (rows read, rowids, values) of the rows whose
        int64 column holds one of the values, in rowID order.

        Each partition reads only the sub-blocks whose filter passes a
        value that its chunk's zone maps and filter let through (see
        ``Partition.probe``); the first count is the rows of those
        sub-blocks. Only probed columns have these block summaries: the
        first probe builds the column's zone maps and filters in every
        partition, and the mutators keep them up to date.
        """
        self._check_columns([column])
        if np.dtype(dict(self.schema)[column]) != np.int64:
            raise ValueError(f"a probe needs an int64 column, not {column!r}")
        keys = sort_unique(np.asarray(values, dtype=np.int64))
        scanned, ids, vals, base = 0, [], [], 0
        for p in self.partitions:
            rows, i, v = p.probe(column, keys, base)
            scanned += rows
            ids.append(i)
            vals.append(v)
            base += p.nrows
        return scanned, np.concatenate(ids), np.concatenate(vals)

    # -- block summaries --------------------------------------------------------

    def filter_bytes(self):
        """Bytes of the live chunks' membership filters, both levels."""
        return sum(f[:p.nchunks].nbytes for p in self.partitions
                   for pair in p.filters.values() for f in pair)

    def filter_fill(self):
        """Share of set bits in the membership filters of the live chunks
        and of their non-empty sub-blocks, or 0.0 without filters. Deletes
        and modifies leave the old values' bits until a condense rebuilds
        a chunk's filters, so stale bits show as a rising share."""
        bits = words = 0
        for p in self.partitions:
            if not p.filters:
                continue
            held = np.diff(p.sub_ends[:p.nchunks], axis=1, prepend=0) > 0
            for c in p.filters:
                chunk_f, sub_f = p.filter_words(c)
                for live in (chunk_f[p.counts > 0], sub_f.transpose(0, 2, 1)[held]):
                    bits += int(np.bitwise_count(live).sum())
                    words += live.size
        return bits / (64 * words) if words else 0.0

    def total_blocks(self):
        bs = self.block_size
        return sum(int((-(-p.counts // bs)).sum()) for p in self.partitions)

    # -- updates -------------------------------------------------------------------

    def insert_rows(self, rows):
        """Append rows to the last partition; returns their rowIDs. rows
        maps every column to the same number of values."""
        names = self.column_names
        if rows.keys() != set(names):
            raise ValueError(f"insert needs exactly the columns {names}")
        rows = self._check_values(rows, np.size(rows[names[0]]), "insert")
        start = self.row_count
        self.partitions[-1].append(rows)
        return np.arange(start, self.row_count, dtype=np.int64)

    def route(self, rowids, what):
        """``route_rows`` over this table's partitions, as a list."""
        return list(route_rows(rowids, [p.nrows for p in self.partitions],
                               what))

    def modify_rows(self, rowids, updates):
        """In-place update; updates maps column name to per-row new values.

        Returns the routing (``route``): (partition number, selection of
        rowids, that partition's rows) per touched partition, so that the
        statement's index upkeep need not route the rowIDs again.
        """
        rowids = np.asarray(rowids, dtype=np.int64)
        updates = self._check_values(updates, len(rowids), "modify")
        routed = self.route(rowids, "modify")
        for p, sel, local in routed:
            self.partitions[p].modify_rows(
                local, {c: v[sel] for c, v in updates.items()})
        return routed

    def gather(self, rowids, column):
        """Values of one column at arbitrary rowIDs, in their order; a
        rowID outside the table raises IndexError."""
        rowids = np.asarray(rowids, dtype=np.int64)
        out = np.empty(len(rowids), dtype=dict(self.schema)[column])
        for p, sel, local in self.route(rowids, "gather"):
            out[sel] = self.partitions[p].take(column, local)
        return out

    def delete_rows(self, descending_rowids):
        """Physically remove rows; subsequent rowIDs shift down.

        Only the chunks holding deleted rows are rewritten, in one kernel
        call per partition (``Partition.delete_rows``). Returns the
        routing, a list of (partition number, that partition's deleted
        rows, strictly descending), so that the statement's index upkeep
        need not route the rowIDs again.
        """
        rowids = np.asarray(descending_rowids, dtype=np.int64)
        if rowids.size > 1 and not np.all(np.diff(rowids) < 0):
            raise ValueError("delete rowIDs must be strictly descending")
        sizes = [p.nrows for p in self.partitions]
        routed = [(p, local) for p, _, local in route_rows(rowids, sizes,
                                                           "delete")]
        for p, local in routed:
            self.partitions[p].delete_rows(local[::-1])
        return routed

    # -- persistence ----------------------------------------------------------------

    def save(self, path):
        """Single-file binary dump."""
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
            # rows in order, summarized on the contiguous block grid
            parts = [(p.columns, p.int_columns()) for p in self.partitions]
            for cols, _ in parts:
                for name, _ in self.schema:
                    f.write(np.ascontiguousarray(cols[name]).tobytes())
            for cols, int_columns in parts:
                for c in int_columns:
                    for summary in _block_minmax(cols[c], self.block_size):
                        f.write(summary.tobytes())

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
                cols[name] = np.frombuffer(buf, dtype=dtype, count=nrows,
                                           offset=pos)
                pos += cols[name].nbytes
            raw_parts.append(cols)
        # the stored summaries are only checked against the rows; the
        # partitions build their own on a column's first probe
        ints = [name for name, dtype in schema if np.dtype(dtype) == np.int64]
        for pnum, cols in enumerate(raw_parts):
            for name in ints:
                for zone in _block_minmax(cols[name], block_size):
                    stored = np.frombuffer(buf, dtype=np.int64,
                                           count=len(zone), offset=pos)
                    pos += zone.nbytes
                    if not np.array_equal(zone, stored):
                        raise ValueError(
                            f"{path}: partition {pnum}: stored zone maps of "
                            f"column {name!r} do not match its rows")
        partitions = [Partition(cols, block_size) for cols in raw_parts]
        return cls(schema, partitions, block_size)
