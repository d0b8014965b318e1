"""Minimal columnar table storage.

Tables hold int64 (and fixed-width bytes) columns split into partitions.
Global rowIDs are dense, assigned by partition order then position. Each
partition stores its rows in fixed-capacity chunks, the sharded bitmap's
layout. An int64 column probed for value sets gets, on its first probe,
one min/max per chunk (its zone) and blocked Bloom filters on two
levels, one per chunk and one per sub-block, whose bounds move with
deletes like the bitmap's shard starts; a probe reads only the
sub-blocks that may hold a probed value. Other columns carry
neither. Inserts append to the last partition's chunks. Deletes compact
rows immediately, inside the chunks that hold them, shifting all
subsequent rowIDs down; a partition left with fewer than CONDENSE_BELOW
of its slots live repacks, as the sharded bitmap condenses.
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
# chunk capacity in blocks: a delete rewrites one chunk of
# CHUNK_BLOCKS * block_size rows, not the whole partition. In a 16/8/4/2/1
# sweep, 10-row deletes cost about half as much at 4 as at 16 and
# 1000-row statements no more; 2 and 1 cut deletes further, but at 2 the
# benchmark's low-e queries read slower (see ROADMAP item 4(a))
CHUNK_BLOCKS = 4
# block membership filter size: 16 bits per row keep the false-positive
# rate of a full filter near 0.5% at 4 bits per key
FILTER_BITS_PER_ROW = 16
# rows of a filter sub-block at most; blocks of fewer rows make
# sub-blocks of one block each. In a 128/256/512/1024 sweep (CHANGES.md),
# 128 and 256 probed alike and 512 and 1024 read more rows for no less work
FILTER_SUB_ROWS = 256
# a partition repacks its chunks, and a bitmap patch store its bitmap,
# after a delete that leaves fewer of their slots live than this share, so
# deletes cannot grow them without bound. A high share keeps the index size
# and the table's chunk fill nearly flat under a stream of deletes and
# appends: a repack of a 250k-bit partition's bitmap costs about 0.14 ms,
# of a 250k-row partition with one probed column about 5 ms, each about
# once every 50 1000-row deletes at 0.95
CONDENSE_BELOW = 0.95
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # the kernels' multiplicative hash
# the zone (min, max) of a chunk without rows: no key falls inside it
_EMPTY_ZONE = (np.iinfo(np.int64).max, np.iinfo(np.int64).min)


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
    capacity is CHUNK_BLOCKS blocks. A delete compacts the touched chunks
    only, and an append fills the last chunk and then opens new ones. The
    free slots of every chunk but the last are lost, like the dead bits
    of the bitmap's shards, until a delete leaves fewer than
    CONDENSE_BELOW of the slots live and the partition repacks
    (``_condense``); an emptied chunk keeps its slot until then.

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
    a pair of (slots,) arrays, each chunk's least and greatest live value
    (its zone; ``_EMPTY_ZONE`` in a slot without rows), and a pair of
    blocked Bloom filter arrays, one filter per chunk, (slots, words), and
    one per sub-block, (slots, words, nsub), word by word, so that one
    word of every sub-block of a chunk lies together; appends never
    resize them.

    Every mutator keeps the zones exact by widening: appends and modifies
    fold the new values into their chunks' zones, and only a chunk where
    a deleted or overwritten value was the min or max is re-scanned. Every
    live row's value is in its chunk's and its sub-block's filter: appends
    and modifies add the new values, a delete adds none, and a repack
    builds every summary again from the live rows. Only a repack clears
    filter bits, so a deleted or overwritten value leaves stale bits until
    then, and a filter may answer "maybe" wrongly but never "no" wrongly.
    """

    def __init__(self, columns, block_size=DEFAULT_BLOCK_SIZE):
        """Copy whole-partition arrays into chunks; the caller's arrays are
        never written."""
        self.capacity = CHUNK_BLOCKS * block_size
        self.sub_rows = min(FILTER_SUB_ROWS, block_size)
        self.nsub = -(-self.capacity // self.sub_rows)
        # the sub-block ends of a chunk cut on the sub_rows grid
        self.grid = np.arange(1, self.nsub + 1) * self.sub_rows
        self.chunk_log2 = _filter_size_log2(self.capacity)
        self.sub_log2 = _filter_size_log2(self.sub_rows)
        self._layout(columns)

    def _layout(self, columns):
        """Copy whole-partition arrays into full chunks, the last one
        partly filled, without block summaries."""
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
        self.sub_ends = None  # cut with the first filters, see filter_words
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

    def int_columns(self):
        return [c for c, a in self.chunks.items() if a.dtype == np.int64]

    def chunk(self, column, k):
        """The live rows of chunk k (a view)."""
        return self.chunks[column][k, :self.counts[k]]

    def filter_words(self, column):
        """(chunk filters, sub-block filters) of an int64 column: an
        (nchunks, words) array whose row k is chunk k's filter and an
        (nchunks, words, nsub) array whose [k, :, s] is the filter of
        sub-block s of chunk k.

        The first request builds the column's block summaries from the
        chunk buffers, its zones first and then its filters; from then on
        every mutator keeps both up to date.
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
            self.zones[column] = tuple(np.full(slots, e, np.int64)
                                       for e in _EMPTY_ZONE)
            self.filters[column] = (
                np.zeros((slots, 1 << self.chunk_log2), np.uint64),
                np.zeros((slots, 1 << self.sub_log2, self.nsub), np.uint64))
            self._args = None  # the kernels' argument block names them
            self._rescan_zones([column], range(self.nchunks))
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
        updates. For index discovery, inspection and a repack
        (``_condense``) only: no query reads it.
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

    def _rescan_zones(self, columns, chunks):
        """Set the zones of the given probed columns in the given chunks to
        the least and greatest of their live rows, ``_EMPTY_ZONE`` for a
        chunk without rows."""
        for c in columns:
            mins, maxs = self.zones[c]
            for k in chunks:
                rows = self.chunk(c, k)
                mins[k], maxs[k] = ((rows.min(), rows.max()) if len(rows)
                                    else _EMPTY_ZONE)

    def _widen_zones(self, column, pos, old):
        """Widen the zones of a probed column by the values a modify wrote
        at the flattened buffer positions pos; old holds the values at pos
        before the write. Returns the ascending chunks whose min or max an
        old value was, the only ones that may now be too wide.

        The new values are read back from the buffers, so a position given
        twice widens its chunk by the value it kept, not by the one it
        overwrote.
        """
        chunks = pos // self.capacity
        mins, maxs = self.zones[column]
        stale = sort_unique(chunks[(old == mins[chunks]) | (old == maxs[chunks])])
        new = self.chunks[column].reshape(-1)[pos]
        np.minimum.at(mins, chunks, new)
        np.maximum.at(maxs, chunks, new)
        return stale

    def _grow(self, nchunks):
        """Open empty chunks up to nchunks; the buffers double their slots
        when they run out, so the copy of the old chunks is amortized."""
        slots = len(next(iter(self.chunks.values())))
        if nchunks > slots:
            slots = max(nchunks, 2 * slots)

            def grown(buf, fill=0):
                big = np.zeros((slots,) + buf.shape[1:], buf.dtype)
                big[:self.nchunks] = buf[:self.nchunks]
                if fill:
                    big[self.nchunks:] = fill
                return big

            self.chunks = {c: grown(b) for c, b in self.chunks.items()}
            if self.sub_ends is not None:
                self.sub_ends = grown(self.sub_ends)
            self.zones = {c: tuple(map(grown, zone, _EMPTY_ZONE))
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
        self._widen_run(first, start, n)
        self._filter_rows(np.arange(start, start + n), list(self.filters))
        self._recount()

    def _widen_run(self, first, start, n):
        """Widen the probed columns' zones of chunks first.. by the n rows
        appended at flattened buffer position start: one min and max of
        the run's slice in each chunk it reaches."""
        cap = self.capacity
        for c, (mins, maxs) in self.zones.items():
            flat = self.chunks[c].reshape(-1)
            for k in range(first, self.nchunks):
                run = flat[max(start, k * cap):min(start + n, (k + 1) * cap)]
                mins[k] = min(mins[k], run.min())
                maxs[k] = max(maxs[k], run.max())

    def modify_rows(self, local, updates):
        """Overwrite partition rows in place; updates maps column name to
        the rows' new values.

        A probed column's zones stay exact in O(rows): each touched
        chunk's min and max widen by the values the rows now hold, and
        only a chunk where an overwritten value was its min or max is
        re-scanned (``_widen_zones``, ``_rescan_zones``).
        """
        pos = self.positions(local)
        probed = [c for c in updates if c in self.zones]
        old = [self.chunks[c].reshape(-1)[pos] for c in probed]
        for c, vals in updates.items():
            self.chunks[c].reshape(-1)[pos] = vals
        if probed:
            for c, was in zip(probed, old):
                stale = self._widen_zones(c, pos, was)
                if len(stale):
                    self._rescan_zones([c], stale.tolist())
            self._filter_rows(pos, probed)

    def delete_rows(self, local):
        """Remove the strictly ascending partition rows local.

        Rows outside [0, nrows) raise IndexError and rows out of order or
        repeated ValueError, before any chunk changes. Each touched chunk
        closes the gaps in every column, in place, and lowers its
        sub-block ends by the deleted rows below them; no filter changes.
        Its zones stay as they were unless a deleted value was a zone's
        min or max, which is tested before the gaps close; only such a
        zone is re-scanned from the kept rows. With the compiled kernels
        that is one call (``pi_delete_rows``) for all touched chunks; the
        reference runs ``np.delete``, ``_rescan_zones`` and a
        ``np.searchsorted`` per chunk. Then the partition repacks if too
        few of its slots are live (``_condense``).
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
        self._recount()
        self._condense()

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
            stale = [c for c, (mn, mx) in self.zones.items()
                     if np.isin([mn[k], mx[k]], self.chunks[c][k, rows]).any()]
            for buf in self.chunks.values():
                buf[k, :n - len(rows)] = np.delete(buf[k, :n], rows)
            self.counts[k] = n - len(rows)
            self._rescan_zones(stale, [k])
            if self.sub_ends is not None:
                self.sub_ends[k] -= np.searchsorted(rows, self.sub_ends[k])
        return 0

    def _condense(self):
        """Repack the chunks when fewer than CONDENSE_BELOW of the slots
        up to the last row are live, or none is: the sharded bitmap's
        condense. The lost slots are the free ones of every chunk but the
        last, which appends fill. The repack lays the live rows out as the
        constructor does and builds each probed column's block summaries
        again as its first probe did, which clears their stale filter
        bits; a partition without rows keeps no chunk."""
        if self.nrows and self.nrows >= CONDENSE_BELOW * (
                (self.nchunks - 1) * self.capacity + int(self.counts[-1])):
            return
        probed = list(self.filters)
        self._layout(self.columns)
        for c in probed:
            self.filter_words(c)

    def _kernel_args(self):
        """The ``PartitionArgs`` block that the partition kernels (the
        delete, the filter upkeep and the probe plan) read for the current
        buffers, sub-block ends, zones and filters, built on first use
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
                self.nsub, self.chunk_log2, self.sub_log2, self.capacity)
            self._held = held
        return self._args

    def probe(self, column, keys, base=0):
        """Semijoin probe of an int64 column: (rows read, rowIDs, values)
        of the rows whose value occurs in keys, in row order.

        keys is a strictly ascending int64 array (``sort_unique``); rowIDs
        are partition rows plus base. In each chunk, the keys inside its
        zone, from its min to its max, are tested against the chunk's
        filter, the keys that pass against its sub-blocks' filters, and
        only the sub-blocks where one passes are read. The first call
        builds the column's block summaries (``filter_words``). The
        compiled plan (``pi_probe_plan``) finds those sub-blocks and
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
        lo, hi = (z[:n] for z in self.zones[column])
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


def _read_header(buf, path):
    """(schema, partition row counts, block size, offset of the rows) of
    the PDX1 file bytes buf. A file without the magic, or with a header
    other than ``save`` writes, raises ValueError naming path. The header
    is a JSON object whose ``schema`` is a list of [name, dtype] pairs of
    numpy dtypes, whose ``partitions`` is a non-empty list of ints >= 0
    and whose ``block_size`` is an int >= 1."""
    def bad(what):
        return ValueError(f"{path}: bad table header: {what}")

    def whole(x, least):
        return isinstance(x, int) and not isinstance(x, bool) and x >= least

    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: not a table file (bad magic)")
    if len(buf) < 8:
        raise bad("the file ends before the header length")
    (hlen,) = struct.unpack("<I", buf[4:8])
    try:
        header = json.loads(buf[8:8 + hlen].decode())
    except ValueError as exc:  # JSON and UTF-8 decoding errors
        raise bad(f"not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise bad("not a JSON object")
    schema = header.get("schema")
    if not (isinstance(schema, list)
            and all(isinstance(c, list) and len(c) == 2
                    and all(isinstance(x, str) for x in c) for c in schema)):
        raise bad("schema is not a list of [name, dtype] pairs")
    for name, dtype in schema:
        try:
            np.dtype(dtype)
        except (TypeError, ValueError):
            raise bad(f"unknown dtype {dtype!r} of column {name!r}") from None
    sizes = header.get("partitions")
    if not (isinstance(sizes, list) and sizes
            and all(whole(n, 0) for n in sizes)):
        raise bad("partitions is not a non-empty list of row counts")
    if not whole(header.get("block_size"), 1):
        raise bad("block_size is not a positive int")
    return [tuple(c) for c in schema], sizes, header["block_size"], 8 + hlen


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
        value that its chunk's zone and filter let through (see
        ``Partition.probe``); the first count is the rows of those
        sub-blocks. Only probed columns have these block summaries: the
        first probe builds the column's zones and filters in every
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
        and modifies leave the old values' bits until a repack rebuilds
        the partition's filters, so stale bits show as a rising share."""
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
        schema, sizes, block_size, pos = _read_header(buf, path)
        # the rows, then two int64 zone-map entries per block of each
        # int64 column, partition by partition
        dtypes = [np.dtype(dtype) for _, dtype in schema]
        need = pos + sum(n * d.itemsize + (d == np.int64) * 16
                         * -(-n // block_size) for n in sizes for d in dtypes)
        if len(buf) != need:
            raise ValueError(f"{path}: the file holds {len(buf)} bytes, "
                             f"its header needs {need}")
        raw_parts = []
        for nrows in sizes:
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
