"""Updatable dense bitmap with shard-local delete support.

A ShardedBitmap stores logical bits in 64-bit words that are implicitly
divided into fixed-size virtual shards. Each shard carries a start value:
the global index of the first logical bit it stores. Deleting a bit shifts
only the bits of one shard and decrements the start values of subsequent
shards, so a delete never moves more than one shard of memory. The slot at
the end of an affected shard becomes dead (always zero) until a condense()
repacks the structure.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _native

DEFAULT_SHARD_BITS = 1 << 14

# Fixed per-structure bookkeeping (lengths, counters, array headers).
_HEADER_BYTES = 48

# phases of the compiled bulk delete (pi_bulk_delete)
_BULK_SHIFT, _BULK_STARTS = 1, 2

_U1 = np.uint64(1)
_U63 = np.uint64(63)


def shift_numpy(words, base, nwords, from_offset):
    """Reference shift: the fallback backend and the kernels' test oracle.

    Moves every bit of words[base:base + nwords] above bit `from_offset`
    down one position and zeroes the top bit. All lanes shift right by one;
    each lane's top bit is blended in from the next lane's bottom bit,
    shifted one lane down.
    """
    w0 = from_offset >> 6
    b0 = from_offset & 63
    seg = words[base + w0:base + nwords]
    carry = np.empty_like(seg)
    carry[:-1] = seg[1:] << _U63
    carry[-1] = 0
    low = np.uint64((1 << b0) - 1)
    head = (seg[0] & low) | ((seg[0] >> _U1) & ~low) | carry[0]
    seg[:] = (seg >> _U1) | carry
    seg[0] = head


class ShardedBitmap:
    """Dense bit-set of rowIDs with shard-local deletes.

    shift_impl selects the compiled cross-word shift kernel: "scalar" is a
    word-at-a-time loop, "lanes" shifts four words per step with a
    shift/permute/blend. Both are observably identical. Without the compiled
    kernels (see ``_native``) both run the numpy reference shift.
    """

    def __init__(self, logical_len, shard_size_bits=DEFAULT_SHARD_BITS, *,
                 shift_impl="lanes"):
        if shard_size_bits < 64 or shard_size_bits & (shard_size_bits - 1):
            raise ValueError(
                f"shard size must be a power of two >= 64, got {shard_size_bits}")
        if logical_len < 0:
            raise ValueError("logical_len must be non-negative")
        if shift_impl not in ("scalar", "lanes"):
            raise ValueError(f"unknown shift_impl {shift_impl!r}")
        self.shard_size_bits = shard_size_bits
        self._log2_shard = shard_size_bits.bit_length() - 1
        self._wps = shard_size_bits >> 6  # words per shard
        self.logical_len = int(logical_len)
        self.lost_bits = 0
        self.shift_impl = shift_impl

        num_shards = max(1, -(-self.logical_len // shard_size_bits))
        last_bits = self.logical_len - (num_shards - 1) * shard_size_bits
        nwords = (num_shards - 1) * self._wps + ((last_bits + 63) >> 6)
        self._set_arrays(np.zeros(nwords, dtype=np.uint64),
                         np.arange(num_shards, dtype=np.int64) * shard_size_bits)

    @classmethod
    def from_rows(cls, logical_len, rows):
        """A bitmap of logical_len bits in one shard, with the bits at rows
        set; rows outside [0, logical_len) raise IndexError."""
        bits = cls(logical_len, max(64, 1 << (logical_len - 1).bit_length()))
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= logical_len:
                raise IndexError("bit position out of range")
            # one shard is the plain bit order: pack a mask of its words
            mask = np.zeros(64 * len(bits._words), dtype=bool)
            mask[rows] = True
            bits._words[:] = np.packbits(mask, bitorder="little").view(np.uint64)
        return bits

    def _set_arrays(self, words, starts):
        """Install the word and start arrays, caching their addresses.

        The compiled kernels take raw buffer addresses, and reading one
        costs about a microsecond, so every reassignment of _words or
        _starts goes through here. The addresses live in the
        argument block of the compiled single delete.
        """
        self._words = words
        self._starts = starts
        self._args = _native.DeleteArgs(
            _native.address(words), _native.address(starts), len(starts),
            self._log2_shard, self._wps, self.shift_impl == "lanes")

    # -- structure accessors ------------------------------------------------

    @property
    def num_shards(self):
        return len(self._starts)

    @property
    def starts(self):
        return self._starts

    @property
    def words(self):
        return self._words

    def _live_bits(self, shard):
        """Number of logical bits currently stored in a shard."""
        if shard + 1 < len(self._starts):
            return int(self._starts[shard + 1] - self._starts[shard])
        return self.logical_len - int(self._starts[shard])

    def _locate(self, pos):
        """Owning shard of a logical position.

        The initial guess pos // shard_size can only be at or before the
        owning shard, because deletes push start values down; scan forward
        over the start values to correct.
        """
        starts = self._starts
        i = pos >> self._log2_shard
        n = len(starts)
        while i + 1 < n and starts[i + 1] <= pos:
            i += 1
        return i

    def _check_pos(self, pos):
        if not 0 <= pos < self.logical_len:
            raise IndexError(f"bit position {pos} out of range [0, {self.logical_len})")

    # -- single-bit access ----------------------------------------------------

    def get(self, pos):
        self._check_pos(pos)
        i = self._locate(pos)
        off = pos - int(self._starts[i])
        w = i * self._wps + (off >> 6)
        return int(self._words[w] >> np.uint64(off & 63)) & 1

    def set(self, pos):
        self._check_pos(pos)
        i = self._locate(pos)
        off = pos - int(self._starts[i])
        w = i * self._wps + (off >> 6)
        self._words[w] |= _U1 << np.uint64(off & 63)

    def unset(self, pos):
        self._check_pos(pos)
        i = self._locate(pos)
        off = pos - int(self._starts[i])
        w = i * self._wps + (off >> 6)
        self._words[w] &= ~(_U1 << np.uint64(off & 63))

    # -- vectorized access (used by patch stores) -----------------------------

    def _phys(self, positions):
        if positions.min() < 0 or positions.max() >= self.logical_len:
            raise IndexError("bit position out of range")
        shard = np.searchsorted(self._starts, positions, side="right") - 1
        off = positions - self._starts[shard]
        word = shard * self._wps + (off >> 6)
        bit = (off & 63).astype(np.uint64)
        return word, bit

    def get_many(self, positions):
        """Bit values at the given logical positions as a uint8 array."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.zeros(0, dtype=np.uint8)
        word, bit = self._phys(positions)
        return ((self._words[word] >> bit) & _U1).astype(np.uint8)

    def set_many(self, positions):
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return
        word, bit = self._phys(positions)
        np.bitwise_or.at(self._words, word, _U1 << bit)

    def unset_many(self, positions):
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return
        word, bit = self._phys(positions)
        np.bitwise_and.at(self._words, word, ~(_U1 << bit))

    # -- cross-word shift -------------------------------------------------------

    def shift_range_left_by_one(self, shard, from_offset):
        """Move every bit of `shard` above `from_offset` down one position.

        The vacated top slot of the live region becomes zero.
        """
        if not 0 <= shard < len(self._starts):
            raise IndexError(f"shard {shard} out of range")
        live = self._live_bits(shard)
        if not 0 <= from_offset < live:
            raise IndexError(f"offset {from_offset} outside the {live} live "
                             f"bits of shard {shard}")
        base = shard * self._wps
        nwords = (live + 63) >> 6
        if _native.lib is not None:
            _native.lib.pi_shift(self._args.words, base, nwords, from_offset,
                                 self.shift_impl == "lanes")
        else:
            shift_numpy(self._words, base, nwords, from_offset)

    # -- mutation ----------------------------------------------------------------

    def delete(self, pos):
        """Remove the logical bit at pos; subsequent bits move down by one."""
        self._check_pos(pos)
        if _native.lib is not None:
            # one foreign call locates the shard, shifts it and fixes starts
            args = self._args
            args.logical_len = self.logical_len
            args.pos = pos
            _native.lib.pi_delete(args)
        else:
            i = self._locate(pos)
            self.shift_range_left_by_one(i, pos - int(self._starts[i]))
            self._starts[i + 1:] -= 1
        self.logical_len -= 1
        self.lost_bits += 1

    def bulk_delete(self, positions, threads=None):
        """Delete many bits; equivalent to delete() per position in order.

        positions must be strictly descending, duplicate-free logical
        indices: a position outside [0, logical_len) raises IndexError and
        an order break ValueError, before any bit or start value changes.
        With the compiled kernels one call (``pi_bulk_delete``) checks the
        positions, finds their shards, shifts them and fixes the start
        values. When the positions touch 64 or more shards and more than
        one thread is allowed, they are split at shard boundaries over a
        bounded thread pool instead: each worker runs the kernel's shifts
        on its slice, and one final call fixes the start values. Without
        the kernels, the numpy reference groups the positions by shard,
        shifts each with ``shift_numpy`` and fixes the start values from a
        running sum of the deletions in preceding shards.
        """
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        n = positions.size
        if n == 0:
            return
        lib = _native.lib
        if lib is None:
            self._bulk_delete_numpy(positions)
        else:
            args = self._args
            args.logical_len = self.logical_len
            ptr = _native.address(positions)
            cuts = self._pool_cuts(positions, threads)
            if cuts is None:
                rc = lib.pi_bulk_delete(args, ptr, n, _BULK_SHIFT | _BULK_STARTS)
            else:
                # every position is checked before any worker writes
                rc = lib.pi_bulk_delete(args, ptr, n, 0)
                if rc == 0:
                    list(_worker_pool(len(cuts) - 1).map(
                        lambda lo, hi: lib.pi_bulk_delete(
                            args, ptr + 8 * lo, hi - lo, _BULK_SHIFT),
                        cuts[:-1], cuts[1:]))
                    lib.pi_bulk_delete(args, ptr, n, _BULK_STARTS)
            if rc == -2:
                raise IndexError("bulk_delete position out of range")
            if rc < 0:
                raise ValueError("bulk_delete positions must be strictly descending")
        self.logical_len -= n
        self.lost_bits += n

    def _pool_cuts(self, positions, threads):
        """Where to split the positions over the worker pool, at shard
        boundaries with about equal shard counts per worker, or None when
        they touch fewer than 64 shards or one thread is allowed: pool
        dispatch only pays off with enough independent shard units."""
        nthreads = threads if threads is not None else default_threads()
        if nthreads <= 1 or len(positions) < 64 or len(self._starts) < 64:
            return None
        shard_of = np.searchsorted(self._starts, positions, side="right") - 1
        firsts = np.flatnonzero(np.diff(shard_of, prepend=-1))
        if len(firsts) < 64:
            return None
        picks = firsts[len(firsts) * np.arange(nthreads) // nthreads]
        return picks.tolist() + [len(positions)]

    def _bulk_delete_numpy(self, positions):
        """The numpy reference of ``bulk_delete``."""
        n = positions.size
        if positions[0] >= self.logical_len or positions[-1] < 0:
            raise IndexError("bulk_delete position out of range")
        if n > 1 and not np.all(np.diff(positions) < 0):
            raise ValueError("bulk_delete positions must be strictly descending")
        starts = self._starts
        shard_of = np.searchsorted(starts, positions, side="right") - 1
        offsets = positions - starts[shard_of]
        # positions are descending, so shard_of is non-increasing: groups are
        # contiguous runs, each holding one shard's offsets in descending order.
        cuts = np.flatnonzero(shard_of[:-1] != shard_of[1:]) + 1
        group_lo = np.concatenate(([0], cuts))
        group_hi = np.concatenate((cuts, [n]))
        group_shard = shard_of[group_lo]
        ends = np.append(starts[1:], self.logical_len)
        group_nwords = (ends[group_shard] - starts[group_shard] + 63) >> 6
        for g, shard in enumerate(group_shard.tolist()):
            base, nwords = shard * self._wps, int(group_nwords[g])
            for off in offsets[group_lo[g]:group_hi[g]].tolist():
                shift_numpy(self._words, base, nwords, off)
        deleted_in = np.zeros(len(starts), dtype=np.int64)
        deleted_in[group_shard] = group_hi - group_lo
        starts[1:] -= np.cumsum(deleted_in)[:-1]

    def append(self, extra_bits):
        """Grow the bitmap by extra_bits zero bits at the logical end."""
        if extra_bits < 0:
            raise ValueError("extra_bits must be non-negative")
        if extra_bits == 0:
            return
        n = len(self._starts)
        live_last = self._live_bits(n - 1)
        take = min(extra_bits, self.shard_size_bits - live_last)
        rem = extra_bits - take
        new_shards = -(-rem // self.shard_size_bits)

        if new_shards == 0:
            final_live = live_last + take
        else:
            final_live = rem - (new_shards - 1) * self.shard_size_bits
        nwords = (n + new_shards - 1) * self._wps + ((final_live + 63) >> 6)
        words, starts = self._words, self._starts
        if nwords > len(words):
            words = np.zeros(nwords, dtype=np.uint64)
            words[:len(self._words)] = self._words
        if new_shards:
            first_new = int(starts[n - 1]) + self.shard_size_bits
            added = first_new + np.arange(new_shards, dtype=np.int64) * self.shard_size_bits
            starts = np.concatenate((starts, added))
        self._set_arrays(words, starts)
        self.logical_len += extra_bits

    def condense(self):
        """Repack logical bits densely, restoring regular start values."""
        if self.lost_bits == 0:
            return
        bits = self.to_bool_array()
        s = self.shard_size_bits
        num_shards = max(1, -(-self.logical_len // s))
        last_bits = self.logical_len - (num_shards - 1) * s
        nwords = (num_shards - 1) * self._wps + ((last_bits + 63) >> 6)
        packed = np.packbits(bits, bitorder="little")
        buf = np.zeros(nwords * 8, dtype=np.uint8)
        buf[:len(packed)] = packed
        self._set_arrays(buf.view(np.uint64),
                         np.arange(num_shards, dtype=np.int64) * s)
        self.lost_bits = 0

    # -- whole-structure readout ----------------------------------------------

    def to_bool_array(self):
        """The logical bit sequence as a bool array of length logical_len."""
        if self.logical_len == 0:
            return np.zeros(0, dtype=bool)
        allbits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        if self.lost_bits == 0:
            return allbits[:self.logical_len].view(bool)
        parts = []
        for i in range(len(self._starts)):
            base = i * self._wps * 64
            parts.append(allbits[base:base + self._live_bits(i)])
        return np.concatenate(parts).view(bool)

    def last_unset(self):
        """Highest logical position holding a zero bit, or None.

        Scans the shards backwards, each over its live words only, so dead
        slots left by deletes never count as zeros.
        """
        for i in range(len(self._starts) - 1, -1, -1):
            live = self._live_bits(i)
            if live == 0:
                continue
            base = i * self._wps
            zeros = ~self._words[base:base + ((live + 63) >> 6)]
            if live & 63:
                zeros[-1] &= (_U1 << np.uint64(live & 63)) - _U1
            nonzero = np.flatnonzero(zeros)
            if nonzero.size:
                w = int(nonzero[-1])
                return int(self._starts[i]) + 64 * w + int(zeros[w]).bit_length() - 1
        return None

    def count_set(self):
        return int(np.bitwise_count(self._words).sum())

    def utilization(self):
        capacity = self.logical_len + self.lost_bits
        if capacity == 0:
            return 1.0
        return self.logical_len / capacity

    def memory_bytes(self):
        return self._words.nbytes + self._starts.nbytes + _HEADER_BYTES

    def dump(self):
        """Debug lines, one per shard (test aid, not a stability contract)."""
        for i in range(len(self._starts)):
            base = i * self._wps
            nwords = (self._live_bits(i) + 63) >> 6
            words = " ".join(f"{int(w):016x}" for w in self._words[base:base + nwords])
            yield f"shard {i} start={int(self._starts[i])} bits={words}"

    def check_invariants(self):
        starts = self._starts
        assert starts[0] == 0
        # monotone starts; equal neighbours only for shards emptied by deletes
        assert np.all(np.diff(starts) >= 0)
        for i in range(len(starts)):
            live = self._live_bits(i)
            assert 0 <= live <= self.shard_size_bits, (i, live)
        # dead slots must read as zero
        assert self.count_set() == int(self.to_bool_array().sum())


_pools = {}


def _worker_pool(nthreads):
    """Shared executor per thread count; creating pools per call is wasteful."""
    pool = _pools.get(nthreads)
    if pool is None:
        pool = _pools[nthreads] = ThreadPoolExecutor(max_workers=nthreads)
    return pool


_default_threads_override = None


def set_default_threads(n):
    """Pin the worker-pool size used where no explicit thread count is given."""
    global _default_threads_override
    _default_threads_override = n


def default_threads():
    if _default_threads_override is not None:
        return _default_threads_override
    return min(8, os.cpu_count() or 1)
