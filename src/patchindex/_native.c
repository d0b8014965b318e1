/* Compiled inner loops: shard-local bit deletion, one bulk delete per
 * bitmap, column membership, block Bloom filters, the merge join, the hash
 * join, the k-way merge and copy of sorted streams, the select of a
 * partition's rows by the bits of a sharded bit set, the delete of a
 * partition's rows with its sub-block bound upkeep, the zone and filter
 * upkeep of written rows, the two-level filter plan and the semijoin read
 * of a partition's probe and longest-sorted-subsequence discovery.
 *
 * The shift kernels operate on a flat uint64 word array and touch only the
 * word range of one shard per delete, so concurrent calls on disjoint shards
 * are safe. The Python side (patchindex._native) builds this file with the
 * system C compiler and calls it through ctypes, which releases the GIL for
 * the duration of each call. Dtypes and contiguity are validated in Python
 * first; the kernels that take row or bit positions check them themselves,
 * before they write anything.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* X86_CLONES: the compiler can build a function for an x86-64 CPU
 * feature, chosen at load time from what the CPU has (GCC's and Clang's
 * target attributes with glibc's CPU probes). Other builds get the
 * baseline code only. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define X86_CLONES 1
#endif
#endif

/* The build targets the x86-64 baseline, which has no 64-bit integer min,
 * max or compare, so where the compiler can clone a function for the CPU
 * found at load time (GCC's and Clang's target_clones, through glibc's
 * ifunc), the loops that need them get AVX-512 and AVX2 clones. Every
 * clone computes the same result. */
#ifdef X86_CLONES
#define VECTOR_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define VECTOR_CLONES
#endif

/* Delete bits at descending in-shard offsets, one word at a time.
 *
 * Each delete shifts every bit above the offset down one position within
 * words [base, base+nwords); the vacated top slot fills with zero. */
static void multi_delete_scalar(uint64_t *words, int64_t base, int64_t nwords,
                                const int64_t *offsets, int64_t n)
{
    const int64_t last = base + nwords - 1;
    for (int64_t t = 0; t < n; t++) {
        const int64_t off = offsets[t];
        int64_t w = base + (off >> 6);
        const uint64_t low = ((uint64_t)1 << (off & 63)) - 1;
        const uint64_t cur = words[w];
        const uint64_t carry = w < last ? (words[w + 1] & 1) << 63 : 0;
        words[w] = (cur & low) | ((cur >> 1) & ~low) | carry;
        for (w++; w <= last; w++) {
            const uint64_t nxt = w < last ? words[w + 1] << 63 : 0;
            words[w] = (words[w] >> 1) | nxt;
        }
    }
}

/* Same contract as multi_delete_scalar, shifting four words per step.
 *
 * Per step: four lanes shift right by one, each lane's top bit is blended
 * in from the next lane's bottom bit (a one-lane permute), and the final
 * lane takes its carry from the word following the block. */
static void multi_delete_lanes(uint64_t *words, int64_t base, int64_t nwords,
                               const int64_t *offsets, int64_t n)
{
    const int64_t last = base + nwords - 1;
    for (int64_t t = 0; t < n; t++) {
        const int64_t off = offsets[t];
        int64_t w = base + (off >> 6);
        const uint64_t low = ((uint64_t)1 << (off & 63)) - 1;
        const uint64_t cur = words[w];
        const uint64_t carry = w < last ? (words[w + 1] & 1) << 63 : 0;
        words[w] = (cur & low) | ((cur >> 1) & ~low) | carry;
        w++;
        for (; w + 3 <= last; w += 4) {
            const uint64_t a0 = words[w], a1 = words[w + 1];
            const uint64_t a2 = words[w + 2], a3 = words[w + 3];
            const uint64_t nxt = w + 4 <= last ? words[w + 4] : 0;
            words[w] = (a0 >> 1) | (a1 << 63);
            words[w + 1] = (a1 >> 1) | (a2 << 63);
            words[w + 2] = (a2 >> 1) | (a3 << 63);
            words[w + 3] = (a3 >> 1) | (nxt << 63);
        }
        for (; w <= last; w++) {
            const uint64_t nxt = w < last ? words[w + 1] << 63 : 0;
            words[w] = (words[w] >> 1) | nxt;
        }
    }
}

static void multi_delete(uint64_t *words, int64_t base, int64_t nwords,
                         const int64_t *offsets, int64_t n, int lanes)
{
    if (lanes)
        multi_delete_lanes(words, base, nwords, offsets, n);
    else
        multi_delete_scalar(words, base, nwords, offsets, n);
}

/* One shift of the words [base, base+nwords) above in-shard offset off. */
void pi_shift(uint64_t *words, int64_t base, int64_t nwords, int64_t off,
              int lanes)
{
    multi_delete(words, base, nwords, &off, 1, lanes);
}

/* Argument block of pi_delete, kept per bitmap on the Python side so that
 * a single delete marshals one pointer instead of eight integers. Mirrors
 * patchindex._native.DeleteArgs. */
struct delete_args {
    uint64_t *words;
    int64_t *starts;
    int64_t nstarts;
    int64_t log2_shard;
    int64_t wps; /* words per shard */
    int64_t lanes;
    int64_t logical_len;
    int64_t pos;
};

/* Fused single delete of logical position pos (0 <= pos < logical_len).
 *
 * Locates the owning shard (the guess pos >> log2_shard is at or before it,
 * because deletes only push start values down), shifts that shard's live
 * words, and decrements the start values of every later shard. */
void pi_delete(const struct delete_args *a)
{
    int64_t *starts = a->starts;
    const int64_t pos = a->pos;
    int64_t i = pos >> a->log2_shard;
    while (i + 1 < a->nstarts && starts[i + 1] <= pos)
        i++;
    const int64_t end = i + 1 < a->nstarts ? starts[i + 1] : a->logical_len;
    const int64_t off = pos - starts[i];
    multi_delete(a->words, i * a->wps, (end - starts[i] + 63) >> 6, &off, 1,
                 a->lanes != 0);
    for (int64_t j = i + 1; j < a->nstarts; j++)
        starts[j]--;
}

/* Phases of pi_bulk_delete. */
#define BULK_SHIFT 1  /* shift every position out of its shard */
#define BULK_STARTS 2 /* decrement the start values of the later shards */

/* Bulk delete of the strictly descending logical positions pos[0:n], the
 * same as pi_delete per position in order. Checks the positions first and
 * returns, before writing anything, -2 when pos[0] >= logical_len or
 * pos[n-1] < 0 and -1 when they do not strictly descend; returns 0 after
 * running the given phases.
 *
 * BULK_SHIFT walks the positions down through their owning shards, each
 * found from the last one by stepping down the start values, and shifts
 * each shard's live words once per position in it. It reads the start
 * values and writes only the words of the positions' shards, so calls on
 * positions of disjoint shards may run at once. BULK_STARTS then takes
 * from each start value the count of positions below it, in one pass
 * from the shard of the lowest position up. */
int64_t pi_bulk_delete(const struct delete_args *a, const int64_t *pos,
                       int64_t n, int phases)
{
    if (n == 0)
        return 0;
    if (pos[0] >= a->logical_len || pos[n - 1] < 0)
        return -2;
    for (int64_t t = 1; t < n; t++)
        if (pos[t] >= pos[t - 1])
            return -1;
    int64_t *starts = a->starts;
    const int64_t ns = a->nstarts;
    if (phases & BULK_SHIFT) {
        int64_t i = pos[0] >> a->log2_shard;
        while (i + 1 < ns && starts[i + 1] <= pos[0])
            i++;
        for (int64_t t = 0; t < n;) {
            while (starts[i] > pos[t])
                i--;
            const int64_t s = starts[i];
            const int64_t end = i + 1 < ns ? starts[i + 1] : a->logical_len;
            const int64_t base = i * a->wps, nwords = (end - s + 63) >> 6;
            for (; t < n && pos[t] >= s; t++) {
                const int64_t off = pos[t] - s;
                multi_delete(a->words, base, nwords, &off, 1, a->lanes != 0);
            }
        }
    }
    if (phases & BULK_STARTS) {
        int64_t j = (pos[n - 1] >> a->log2_shard) + 1, t = n;
        while (j < ns && starts[j] <= pos[n - 1])
            j++;
        for (; j < ns; j++) {
            while (t > 0 && pos[t - 1] < starts[j])
                t--;
            starts[j] -= n - t;
        }
    }
    return 0;
}

/* Membership filter: a bit array over a multiplicative hash of the keys,
 * 64 bits per key, at least 2^12 and at most 2^22 bits (512 KiB). Past
 * 2^16 keys the bits per key shrink, down to 8 at 2^19 keys; larger key
 * sets saturate the filter, which costs speed but not exactness, because
 * every hit is confirmed by binary search. */
#define FILTER_MIN_LOG2 12
#define FILTER_MAX_LOG2 22

static inline uint64_t filter_slot(int64_t v, int shift)
{
    return ((uint64_t)v * 0x9E3779B97F4A7C15ull) >> shift;
}

/* Whether v occurs in the ascending keys[0:k], k > 0 (branch-free steps). */
static inline int sorted_contains(const int64_t *keys, int64_t k, int64_t v)
{
    const int64_t *base = keys;
    while (k > 1) {
        const int64_t half = k >> 1;
        base = base[half] <= v ? base + half : base;
        k -= half;
    }
    return *base == v;
}

/* The bit filter of a sorted key set, and the shift of its slot hash. */
struct key_filter {
    uint64_t *bits;
    int shift;
};

/* Builds the filter of the keys[0:k], k > 0; returns -1 when it cannot be
 * allocated and 0 otherwise. The caller frees f->bits. */
static int key_filter_build(struct key_filter *f, const int64_t *keys,
                            int64_t k)
{
    int log2 = FILTER_MIN_LOG2;
    while (log2 < FILTER_MAX_LOG2 && ((int64_t)1 << log2) < 64 * k)
        log2++;
    f->shift = 64 - log2;
    f->bits = calloc((size_t)1 << (log2 - 6), sizeof *f->bits);
    if (f->bits == NULL)
        return -1;
    for (int64_t j = 0; j < k; j++) {
        const uint64_t h = filter_slot(keys[j], f->shift);
        f->bits[h >> 6] |= (uint64_t)1 << (h & 63);
    }
    return 0;
}

/* Writes to out, without a branch, each i in [lo, hi) whose col[i] passes
 * the filter, and returns their count; out needs room for hi - lo. */
static int64_t key_filter_pass(const struct key_filter *f, const int64_t *col,
                               int64_t lo, int64_t hi, int64_t *out)
{
    int64_t hits = 0;
    for (int64_t i = lo; i < hi; i++) {
        const uint64_t h = filter_slot(col[i], f->shift);
        out[hits] = i;
        hits += (f->bits[h >> 6] >> (h & 63)) & 1;
    }
    return hits;
}

/* Ascending positions i in [0, n) whose col[i] occurs in keys[0:k], which
 * must be sorted ascending. Writes them to out (room for n) and returns
 * their count, or -1 when the filter cannot be allocated.
 *
 * Pass one writes every filter hit without a branch; pass two keeps the
 * hits that the binary search confirms, compacting in place. */
int64_t pi_in_positions(const int64_t *col, int64_t n, const int64_t *keys,
                        int64_t k, int64_t *out)
{
    if (k == 0)
        return 0;
    struct key_filter f;
    if (key_filter_build(&f, keys, k) < 0)
        return -1;
    const int64_t hits = key_filter_pass(&f, col, 0, n, out);
    free(f.bits);
    int64_t count = 0;
    for (int64_t t = 0; t < hits; t++) {
        const int64_t i = out[t];
        out[count] = i;
        count += sorted_contains(keys, k, col[i]);
    }
    return count;
}

/* Blocked Bloom filters (Putze, Sanders and Singler, "Cache-, Hash- and
 * Space-Efficient Bloom Filters", WEA 2007): a key sets up to 4 bits of
 * one 64-bit word. Of the key's multiplicative hash, the top log2_words
 * bits pick the word and the next four 6-bit fields pick the bits, so
 * 1 <= log2_words <= 40. */
static inline uint64_t bloom_pattern(uint64_t h, int shift)
{
    uint64_t pattern = 0;
    for (int j = 1; j <= 4; j++)
        pattern |= (uint64_t)1 << ((h >> (shift - 6 * j)) & 63);
    return pattern;
}

/* First index i with keys[i] >= v (keys[i] > v when past is set) in the
 * ascending keys[0:k], or k. */
static inline int64_t bound(const int64_t *keys, int64_t k, int64_t v,
                            int past)
{
    int64_t lo = 0;
    while (k > 0) {
        const int64_t half = k >> 1;
        if (keys[lo + half] < v || (past && keys[lo + half] == v)) {
            lo += half + 1;
            k -= half + 1;
        } else {
            k = half;
        }
    }
    return lo;
}

static inline int64_t lower_bound(const int64_t *keys, int64_t k, int64_t v)
{
    return bound(keys, k, v, 0);
}

/* Merge join of ascending (ties allowed) left keys lk[0:nl] against
 * strictly ascending right keys rk[0:nr], in one pass over both.
 *
 * For each matching left row i, in order, writes i to lidx and the
 * position of its right key to ridx (both with room for nl), and returns
 * the number of matches. Returns -2 when rk is not strictly ascending and
 * -1 when lk is not ascending; both orders are checked in full. */
int64_t pi_merge_join(const int64_t *lk, int64_t nl, const int64_t *rk,
                      int64_t nr, int64_t *lidx, int64_t *ridx)
{
    for (int64_t j = 1; j < nr; j++)
        if (rk[j] <= rk[j - 1])
            return -2;
    int64_t j = 0, count = 0;
    for (int64_t i = 0; i < nl; i++) {
        const int64_t v = lk[i];
        if (i > 0 && v < lk[i - 1])
            return -1;
        while (j < nr && rk[j] < v)
            j++;
        lidx[count] = i;
        ridx[count] = j;
        count += j < nr && rk[j] == v;
    }
    return count;
}

/* Hash join of probe keys pk[0:np] against build keys bk[0:nb] through a
 * chained table: a power-of-two head array with at least 2 * nb slots,
 * indexed by the hash of filter_slot, and a next array over the build rows.
 * Build rows are inserted in reverse, so every chain yields its build
 * positions in ascending order.
 *
 * Writes matching (probe, build) position pairs to pidx and bidx in probe
 * order, ties in ascending build position, while fewer than cap are
 * written, and returns the total number of pairs (which may exceed cap),
 * or -1 when the table cannot be allocated. */
int64_t pi_hash_join(const int64_t *bk, int64_t nb, const int64_t *pk,
                     int64_t np, int64_t *pidx, int64_t *bidx, int64_t cap)
{
    if (nb == 0 || np == 0)
        return 0;
    int log2 = 1;
    while (((int64_t)1 << log2) < 2 * nb)
        log2++;
    const int shift = 64 - log2;
    int64_t *head = malloc(((size_t)1 << log2) * sizeof *head);
    int64_t *next = malloc((size_t)nb * sizeof *next);
    if (head == NULL || next == NULL) {
        free(head);
        free(next);
        return -1;
    }
    memset(head, 0xff, ((size_t)1 << log2) * sizeof *head); /* all -1 */
    for (int64_t j = nb - 1; j >= 0; j--) {
        const uint64_t h = filter_slot(bk[j], shift);
        next[j] = head[h];
        head[h] = j;
    }
    int64_t count = 0;
    for (int64_t i = 0; i < np; i++) {
        const int64_t v = pk[i];
        for (int64_t j = head[filter_slot(v, shift)]; j >= 0; j = next[j]) {
            if (bk[j] != v)
                continue;
            if (count < cap) {
                pidx[count] = i;
                bidx[count] = j;
            }
            count++;
        }
    }
    free(head);
    free(next);
    return count;
}

/* Whether key a goes strictly before key b in the merge order (int64, so
 * that the merge's block test vectorizes). */
static inline int64_t before(int64_t a, int64_t b, const int descending)
{
    return descending ? a > b : a < b;
}

/* Whether key x stays in a run whose next head is bound: it goes before
 * bound, or ties with it and tie_stays is set. */
static inline int64_t in_run(int64_t x, int64_t bound, int64_t tie_stays,
                             const int descending)
{
    return before(x, bound, descending) | (tie_stays & (x == bound));
}

/* The body of pi_merge_copy; descending is a constant at each call site,
 * so each order gets its own comparisons. */
static inline __attribute__((always_inline)) int64_t
merge_copy_body(const int64_t *const *keys, const int64_t *lens, int64_t k,
                const int descending, int64_t *pos, const char *const *src,
                const int64_t *itemsizes, int64_t ncols, char *const *dst)
{
    int64_t runs = 0, out = 0;
    for (;;) {
        /* the first head s and the next head s2 in (key, stream) order */
        int64_t s = -1, s2 = -1;
        for (int64_t t = 0; t < k; t++) {
            if (pos[t] == lens[t])
                continue;
            const int64_t h = keys[t][pos[t]];
            if (s < 0 || before(h, keys[s][pos[s]], descending)) {
                s2 = s;
                s = t;
            } else if (s2 < 0 || before(h, keys[s2][pos[s2]], descending)) {
                s2 = t;
            }
        }
        if (s < 0)
            return runs;
        /* stream s keeps the output while (key, s) stays before the next
         * head: a tie stays in s only when s is the earlier stream; with
         * no next head, the run takes the rest of the stream */
        const int64_t *v = keys[s];
        const int64_t n = lens[s], start = pos[s];
        const int64_t bound = s2 >= 0 ? keys[s2][pos[s2]]
                              : descending ? INT64_MIN : INT64_MAX;
        const int64_t tie_stays = s2 < 0 || s < s2;
        /* the head needs no order test: the stream's run before it ended
         * there because the head goes after that run's bound, and so after
         * the row before it */
        int64_t i = start + 1;
        /* eight rows per step while all of them stay in the run and each
         * is in order after its predecessor; kept as a loop, not unrolled,
         * so that the compiler vectorizes it */
        for (; i + 8 <= n; i += 8) {
            int64_t good = 0;
            _Pragma("GCC unroll 1") for (int j = 0; j < 8; j++)
                good += in_run(v[i + j], bound, tie_stays, descending)
                        & !before(v[i + j], v[i + j - 1], descending);
            if (good != 8)
                break;
        }
        /* the block where the run ends, row by row */
        for (; i < n && in_run(v[i], bound, tie_stays, descending); i++)
            if (before(v[i], v[i - 1], descending))
                return -1;
        for (int64_t c = 0; c < ncols; c++) {
            const int64_t w = itemsizes[c];
            memcpy(dst[c] + out * w, src[c * k + s] + start * w,
                   (size_t)((i - start) * w));
        }
        out += i - start;
        pos[s] = i;
        runs++;
    }
}

/* k-way merge of the int64 key streams keys[t][0:lens[t]], each ascending
 * (descending when descending is set), in one pass over every key, that
 * copies the merged rows of ncols columns as it goes: column c of stream
 * t is the array src[c * k + t] of items of itemsizes[c] bytes, and its
 * merged rows go to dst[c], which has room for every stream's rows.
 *
 * The merge finds one run of rows of one stream at a time, eight keys per
 * step, and copies the run of every column while its keys are still in
 * cache. Ties go to the earlier stream, and every stream keeps its own row
 * order, so the result is the stable sort of the streams' concatenation.
 * Returns the number of runs; -1 when a stream is out of order, which is
 * checked for every row (columns may then be partly written); -2 when the
 * stream positions cannot be allocated. With ncols 0 it only checks the
 * order. */
VECTOR_CLONES
int64_t pi_merge_copy(const int64_t *const *keys, const int64_t *lens,
                      int64_t k, int descending, const char *const *src,
                      const int64_t *itemsizes, int64_t ncols,
                      char *const *dst)
{
    int64_t *pos = calloc((size_t)(k > 0 ? k : 1), sizeof *pos);
    if (pos == NULL)
        return -2;
    const int64_t runs =
        descending
            ? merge_copy_body(keys, lens, k, 1, pos, src, itemsizes, ncols, dst)
            : merge_copy_body(keys, lens, k, 0, pos, src, itemsizes, ncols, dst);
    free(pos);
    return runs;
}

/* Below SHORT_RUN rows per deleted row, a chunk is compacted row by row,
 * since a memmove call per run would cost more than the bytes it moves;
 * the deleted rows are then marked MARK_ROWS rows at a time. */
#define SHORT_RUN 16
#define MARK_ROWS 4096

/* Moves the rows [a, b) of a chunk whose row lo is item 0 of buf to d, a
 * position at or before their own, and returns the end of what it wrote. */
static inline char *move_rows(char *d, char *buf, int64_t itemsize,
                              int64_t lo, int64_t a, int64_t b)
{
    char *s = buf + (a - lo) * itemsize;
    const size_t bytes = (size_t)((b - a) * itemsize);
    if (d != s)
        memmove(d, s, bytes);
    return d + bytes;
}

/* Closes, in place, the gaps of the deleted rows skip[0:m] of a chunk: the
 * chunk holds the rows [lo, hi), row lo at item 0 of buf, items of
 * itemsize bytes, and skip[] ascends without repeats inside [lo, hi).
 *
 * Between deleted rows that lie far apart, each run is one memmove. Where
 * they lie close together, a memmove per run costs more than the bytes it
 * moves, so a chunk of 8-byte items with fewer than SHORT_RUN rows per
 * deleted row is copied row by row instead, MARK_ROWS rows at a time: the
 * deleted rows of the stretch are marked in a byte array, and every row
 * is written to the next free slot, which only a kept row claims. The
 * loop stops before the chunk's trailing stretch of deleted rows, on a
 * kept row, so no write passes the kept rows. */
static void gap_copy(char *buf, int64_t itemsize, int64_t lo, int64_t hi,
                     const int64_t *skip, int64_t m)
{
    char *d = buf + (skip[0] - lo) * itemsize; /* earlier rows stay put */
    int64_t x = skip[0], t = 0;
    if (itemsize == 8 && hi - lo < SHORT_RUN * m) {
        uint8_t gone[MARK_ROWS];
        int64_t u = m - 1; /* the trailing stretch starts at skip[u] */
        while (u > 0 && skip[u - 1] == skip[u] - 1)
            u--;
        const int64_t stop = skip[u];
        const int64_t *row = (const int64_t *)buf - lo; /* row r is row[r] */
        int64_t *o = (int64_t *)d, j = 0;
        for (int64_t b0 = skip[0]; b0 < stop; b0 += MARK_ROWS) {
            const int64_t w = stop - b0 < MARK_ROWS ? stop - b0 : MARK_ROWS;
            memset(gone, 0, (size_t)w);
            const int64_t tb = t + lower_bound(skip + t, u - t, b0 + w);
            for (; t < tb; t++)
                gone[skip[t] - b0] = 1;
            for (int64_t i = 0; i < w; i++) {
                o[j] = row[b0 + i];
                j += !gone[i];
            }
        }
        d = (char *)(o + j);
        x = skip[m - 1] + 1;
    } else {
        for (; t < m; t++) {
            d = move_rows(d, buf, itemsize, lo, x, skip[t]);
            x = skip[t] + 1;
        }
    }
    move_rows(d, buf, itemsize, lo, x, hi);
}

/* Patch-split select: the rows of a partition's chunk spans whose bit in
 * a sharded bit set is set (take) or clear (skip), in order, written to
 * every output column.
 *
 * Shard s of the bit set holds the bits of rows [starts[s], end) in its
 * words [s * wps, s * wps + ceil((end - starts[s]) / 64)), where end is
 * the next start or logical_len; the slots past end that deletes leave
 * read as zero. A segment is where a chunk span meets one shard's rows.
 * Each 64-row window of a segment is read at its bit offset with a funnel
 * shift and masked to the segment, so a skip never keeps a dead slot.
 * Per window: no kept row is skipped, 64 kept rows are one copy, and the
 * rest are walked with count-trailing-zeros, except that where the CPU
 * has AVX-512, more than SELECT_SPARSE kept rows of an 8-byte column are
 * compressed 8 rows at a time. (A branch-free row-by-row store up to the
 * window's last kept row measured slower than the walk at e = 0.01-0.2.) */
#define SELECT_SPARSE 8

/* Argument block of pi_select; mirrors patchindex._native.SelectArgs. */
struct select_args {
    const int64_t *spans;   /* nspans (lo, hi, at): rows [lo, hi), row lo */
    int64_t nspans;         /* at item at of each source column */
    int64_t nrows;          /* the partition's row count */
    const uint64_t *words;  /* the bit set, or NULL for one without bits */
    int64_t nwords;
    const int64_t *starts;
    int64_t nstarts;
    int64_t wps;            /* words per shard */
    int64_t logical_len;
    int64_t take;           /* keep the set rows, else the clear ones */
    int64_t base;           /* rowID of partition row 0 */
    char *const *dst;       /* ncols outputs of room cap rows each */
    const char *const *src; /* their sources; NULL writes the rowIDs */
    const int64_t *itemsize;
    int64_t ncols;
    int64_t cap;
};

static inline int popcount64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (int)((x * 0x0101010101010101ull) >> 56);
}

/* Writes the kept rows of one window of an 8-byte column to d: bit i of
 * keep keeps the window's row i, which is s[i], or rowID row + i when s
 * is NULL. */
typedef void (*dense8_fn)(int64_t *d, const int64_t *s, uint64_t keep,
                          int64_t row);

/* One window, every column: pop kept rows of keep land at output row j;
 * the window's row 0 is source item item and rowID row. */
static inline __attribute__((always_inline)) void
select_window(const struct select_args *a, int64_t j, int64_t item,
              int64_t row, uint64_t keep, int pop, dense8_fn dense8)
{
    for (int64_t c = 0; c < a->ncols; c++) {
        const int64_t size = a->itemsize[c];
        char *d = a->dst[c] + j * size;
        const char *s = a->src[c] == NULL ? NULL : a->src[c] + item * size;
        if (pop == 64) {
            if (s != NULL) {
                memcpy(d, s, (size_t)(64 * size));
            } else {
                int64_t *o = (int64_t *)d;
                for (int i = 0; i < 64; i++)
                    o[i] = row + i;
            }
        } else if (dense8 != NULL && size == 8 && pop > SELECT_SPARSE) {
            dense8((int64_t *)d, (const int64_t *)s, keep, row);
        } else if (s == NULL) {
            for (uint64_t k = keep; k; k &= k - 1, d += 8) {
                const int64_t id = row + __builtin_ctzll(k);
                memcpy(d, &id, 8);
            }
        } else if (size == 8) {
            for (uint64_t k = keep; k; k &= k - 1, d += 8)
                memcpy(d, s + 8 * __builtin_ctzll(k), 8);
        } else {
            for (uint64_t k = keep; k; k &= k - 1, d += size)
                memcpy(d, s + size * __builtin_ctzll(k), (size_t)size);
        }
    }
}

/* Whether the spans ascend inside [0, nrows) and the bit set, if any, is
 * well formed for a partition of nrows rows. */
static int select_valid(const struct select_args *a)
{
    int64_t prev = 0;
    for (int64_t r = 0; r < a->nspans; r++) {
        const int64_t *sp = a->spans + 3 * r;
        if (sp[0] < prev || sp[1] < sp[0] || sp[1] > a->nrows || sp[2] < 0)
            return 0;
        prev = sp[1];
    }
    if (a->words == NULL)
        return 1;
    const int64_t ns = a->nstarts, *starts = a->starts;
    if (ns < 1 || a->wps < 1 || starts[0] != 0 || a->logical_len != a->nrows)
        return 0;
    for (int64_t s = 0; s < ns; s++) {
        const int64_t end = s + 1 < ns ? starts[s + 1] : a->logical_len;
        if (end < starts[s] || end - starts[s] > 64 * a->wps)
            return 0;
    }
    const int64_t last = a->logical_len - starts[ns - 1];
    return (ns - 1) * a->wps + ((last + 63) >> 6) <= a->nwords;
}

/* The body of pi_select with the given dense copy. */
static inline __attribute__((always_inline)) int64_t
select_rows(const struct select_args *a, dense8_fn dense8)
{
    if (!select_valid(a))
        return -1;
    int64_t j = 0;
    if (a->words == NULL) { /* no bits: a skip keeps every row */
        for (int64_t r = 0; r < a->nspans && !a->take; r++) {
            const int64_t lo = a->spans[3 * r], n = a->spans[3 * r + 1] - lo;
            if (j + n > a->cap)
                return -2;
            for (int64_t c = 0; c < a->ncols; c++) {
                const int64_t size = a->itemsize[c];
                char *d = a->dst[c] + j * size;
                if (a->src[c] != NULL) {
                    memcpy(d, a->src[c] + a->spans[3 * r + 2] * size,
                           (size_t)(n * size));
                } else {
                    int64_t *o = (int64_t *)d;
                    for (int64_t i = 0; i < n; i++)
                        o[i] = a->base + lo + i;
                }
            }
            j += n;
        }
        return j;
    }
    const int64_t *starts = a->starts;
    const uint64_t flip = a->take ? 0 : ~(uint64_t)0;
    int64_t s = 0;
    for (int64_t r = 0; r < a->nspans; r++) {
        const int64_t lo = a->spans[3 * r], hi = a->spans[3 * r + 1];
        const int64_t at = a->spans[3 * r + 2];
        for (int64_t x = lo; x < hi;) {
            while (s + 1 < a->nstarts && starts[s + 1] <= x)
                s++;
            const int64_t first = starts[s];
            const int64_t end = s + 1 < a->nstarts ? starts[s + 1] : a->logical_len;
            const int64_t stop = hi < end ? hi : end;
            const uint64_t *sw = a->words + s * a->wps;
            const int64_t live_words = (end - first + 63) >> 6;
            for (; x < stop; x += 64) {
                const int64_t o = x - first, w = o >> 6;
                const int sh = (int)(o & 63);
                uint64_t win = sw[w] >> sh;
                if (sh && w + 1 < live_words)
                    win |= sw[w + 1] << (64 - sh);
                uint64_t keep = win ^ flip;
                if (stop - x < 64) /* the segment's live bits only */
                    keep &= ((uint64_t)1 << (stop - x)) - 1;
                if (keep == 0)
                    continue;
                const int pop = popcount64(keep);
                if (j + pop > a->cap)
                    return -2;
                select_window(a, j, at + x - lo, a->base + x, keep, pop, dense8);
                j += pop;
            }
            x = stop;
        }
    }
    return j;
}

/* pi_select on the scalar path; also the test entry point of that path. */
int64_t pi_select_scalar(const struct select_args *a)
{
    return select_rows(a, NULL);
}

#ifdef X86_CLONES
#include <immintrin.h>

/* The dense copy with AVX-512: each group of 8 rows is a masked load of
 * its kept rows, a compress and a masked store of as many lanes, so
 * nothing is read or written past a buffer. */
__attribute__((target("avx512f")))
static void dense8_avx512(int64_t *d, const int64_t *s, uint64_t keep,
                          int64_t row)
{
    __m512i id = _mm512_add_epi64(_mm512_set1_epi64(row),
                                  _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    for (int g = 0; g < 8; g++, keep >>= 8) {
        const __mmask8 m = (__mmask8)keep;
        const int n = __builtin_popcount(m);
        const __m512i v = s == NULL ? id : _mm512_maskz_loadu_epi64(m, s + 8 * g);
        _mm512_mask_storeu_epi64(d, (__mmask8)((1u << n) - 1),
                                 _mm512_maskz_compress_epi64(m, v));
        d += n;
        id = _mm512_add_epi64(id, _mm512_set1_epi64(8));
    }
}

/* The walk itself stays baseline code: built for AVX-512 as a whole, it
 * took 21 against 12 us per 250k-row partition for a take at e = 0.01,
 * where almost every window goes to the count-trailing-zeros walk. */
static int64_t select_avx512(const struct select_args *a)
{
    return select_rows(a, dense8_avx512);
}
#endif

static int64_t (*select_path)(const struct select_args *) = pi_select_scalar;

#ifdef X86_CLONES
__attribute__((constructor)) static void select_choose(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        select_path = select_avx512;
}
#endif

/* Writes, for each column c, the selected rows of the spans to dst[c]:
 * the items at of src[c] on, or the rowIDs base + row when src[c] is NULL.
 * Checks the spans and the bit set first and returns -1, before writing
 * anything, when they break the layout above or logical_len is not
 * nrows; returns -2 when the rows would pass cap, and otherwise the
 * number of rows written to each column. */
int64_t pi_select(const struct select_args *a)
{
    return select_path(a);
}

/* 1 when pi_select runs the AVX-512 path, 0 on the scalar path. */
int64_t pi_select_uses_avx512(void)
{
    return select_path != pi_select_scalar;
}


/* Argument block of the partition kernels (pi_delete_rows, pi_filter_rows
 * and pi_probe_plan), kept per partition on the Python side and rebuilt
 * when its buffers grow or a column gets its block summaries. Mirrors
 * patchindex._native.PartitionArgs.
 *
 * Zone columns, the columns a probe has read, have one zone per chunk:
 * mins[z][k] <= every live value of chunk k <= maxs[z][k], INT64_MAX and
 * INT64_MIN for a slot that has held no row since the last rebuild.
 * pi_filter_rows widens a zone by each written value, and only the
 * caller's rebuild from the live rows (Partition.filter_words) narrows
 * one. Sub-block s of chunk k holds the
 * chunk's rows [ends[s - 1], ends[s]) (row 0 for s = 0), where ends is the
 * chunk's nsub sub-block ends, sub_ends[k * nsub:]; the ends never
 * decrease and the last is the chunk's row count; sub_ends is NULL while
 * no column has filters. Each zone column has one blocked Bloom
 * filter of 2^chunk_log2 words per chunk, chunk k's at word k <<
 * chunk_log2, and one of 2^sub_log2 words per sub-block, stored word by
 * word: word w of sub-block s of chunk k is word ((k << sub_log2) + w) *
 * nsub + s, so that a key's word of every sub-block of a chunk lies in one
 * run. */
struct partition_args {
    char *const *bufs;          /* ncols (slots, capacity) column buffers */
    const int64_t *itemsizes;   /* bytes per item of each column */
    int64_t ncols;
    int64_t *const *mins;       /* nzones (slots,) chunk zones */
    int64_t *const *maxs;
    const int64_t *zone_cols;   /* the int64 column of each zone */
    uint64_t *const *chunk_filters; /* each zone column's chunk filters */
    uint64_t *const *sub_filters;   /* and its sub-block filters */
    int64_t nzones;
    int64_t *sub_ends;          /* (slots, nsub) sub-block ends, or NULL */
    int64_t nsub;               /* sub-blocks per chunk */
    int64_t chunk_log2;         /* log2 of the words of one chunk filter */
    int64_t sub_log2;           /* and of one sub-block filter */
    int64_t capacity;           /* rows per chunk */
};

/* Delete the strictly ascending partition rows rows[0:m] from a partition
 * of nchunks chunks; chunk k holds counts[k] rows at the front of its slot.
 * Checks the rows first and returns, before writing anything, -2 when
 * rows[0] < 0 or rows[m-1] >= the partition's row count and -1 when they
 * do not strictly ascend. Otherwise each chunk that holds deleted rows
 * closes their gaps in every column, in place, lowers each sub-block end
 * by the deleted rows below it, if the partition has sub-blocks, and takes
 * the new row count; returns 0. Every kept row stays in its chunk and its
 * sub-block, so no zone or filter changes: each still covers the kept
 * rows. Emptied chunks stay in place and freed slots stay unused until
 * the caller repacks the partition, which it does once too few of its
 * slots hold rows (Partition._condense). */
int64_t pi_delete_rows(const struct partition_args *a, const int64_t *rows,
                       int64_t m, int64_t *counts, int64_t nchunks)
{
    int64_t nrows = 0;
    for (int64_t k = 0; k < nchunks; k++)
        nrows += counts[k];
    if (m == 0)
        return 0;
    if (rows[0] < 0 || rows[m - 1] >= nrows)
        return -2;
    for (int64_t t = 1; t < m; t++)
        if (rows[t] <= rows[t - 1])
            return -1;
    int64_t t = 0, start = 0;
    for (int64_t k = 0; k < nchunks && t < m; k++) {
        const int64_t end = start + counts[k];
        const int64_t t1 = t + lower_bound(rows + t, m - t, end);
        if (t1 > t) {
            /* the chunk's rows [start, end) are items 0.. of its slot */
            for (int64_t c = 0; c < a->ncols; c++) {
                char *slot = a->bufs[c] + k * a->capacity * a->itemsizes[c];
                gap_copy(slot, a->itemsizes[c], start, end, rows + t, t1 - t);
            }
            int64_t *ends = a->sub_ends + k * a->nsub;
            for (int64_t s = 0, d = t; a->sub_ends != NULL && s < a->nsub; s++) {
                while (d < t1 && rows[d] - start < ends[s])
                    d++;
                ends[s] -= d - t;
            }
            counts[k] -= t1 - t;
            t = t1;
        }
        start = end;
    }
    return 0;
}

/* Marks each of the n sub-blocks whose filter has every bit of pattern
 * set in its word: words[s] is that word of sub-block s. */
VECTOR_CLONES
static void sub_pass(const uint64_t *words, int64_t n, uint64_t pattern,
                     uint8_t *mark)
{
    for (int64_t s = 0; s < n; s++)
        mark[s] |= (words[s] & pattern) == pattern;
}

/* Adds the values of zone column z at the flattened buffer positions
 * pos[0:n] to their chunk's zone and filter and to the filter of the
 * sub-block whose bounds hold them. Checks first that every position holds
 * a live row of the nchunks chunks and returns, before writing anything,
 * -1 when one does not; returns 0 otherwise. */
int64_t pi_filter_rows(const struct partition_args *a, int64_t z,
                       const int64_t *counts, int64_t nchunks,
                       const int64_t *pos, int64_t n)
{
    const int64_t cap = a->capacity, nsub = a->nsub;
    for (int64_t i = 0; i < n; i++)
        if (pos[i] < 0 || pos[i] / cap >= nchunks
            || pos[i] % cap >= counts[pos[i] / cap])
            return -1;
    const int cshift = 64 - (int)a->chunk_log2, sshift = 64 - (int)a->sub_log2;
    const int64_t *v = (const int64_t *)a->bufs[a->zone_cols[z]];
    for (int64_t i = 0; i < n; i++) {
        const int64_t c = pos[i] / cap, r = pos[i] % cap;
        const int64_t s = bound(a->sub_ends + c * nsub, nsub, r, 1);
        const int64_t x = v[pos[i]];
        const uint64_t h = filter_slot(x, 0);
        a->mins[z][c] = x < a->mins[z][c] ? x : a->mins[z][c];
        a->maxs[z][c] = x > a->maxs[z][c] ? x : a->maxs[z][c];
        a->chunk_filters[z][(c << a->chunk_log2) + (h >> cshift)] |=
            bloom_pattern(h, cshift);
        a->sub_filters[z][(((c << a->sub_log2) + (h >> sshift)) * nsub) + s] |=
            bloom_pattern(h, sshift);
    }
    return 0;
}

/* The plan of a semijoin probe of zone column z: the sub-blocks of the
 * partition that may hold a value of the strictly ascending keys[0:k].
 * Per chunk, each key inside the chunk's zone, from its min to its max,
 * is tested against the chunk filter; only the keys that pass are tested
 * against the filters of the chunk's non-empty sub-blocks (one run of
 * words per key, see sub_pass), and a sub-block is kept when one of them
 * has every pattern bit set there.
 *
 * Writes the kept rows as (lo, hi, row) triples to ranges: the buffer
 * positions [lo, hi) of the column, whose first is partition row `row`,
 * ascending, with neighbouring kept sub-blocks in one triple; ranges needs
 * room for nchunks * nsub triples. Writes the kept row count to *rows and
 * returns the triple count, or -1 when the keys' hashes cannot be
 * allocated. */
int64_t pi_probe_plan(const struct partition_args *a, int64_t z,
                      const int64_t *counts, int64_t nchunks,
                      const int64_t *keys, int64_t k, int64_t *ranges,
                      int64_t *rows)
{
    *rows = 0;
    if (k == 0)
        return 0;
    /* each key's word and pattern in a chunk and in a sub-block filter,
     * once, room for the keys that pass one chunk's filter and a mark per
     * sub-block */
    const int64_t nsub = a->nsub;
    uint64_t *word = malloc(5 * (size_t)k * sizeof *word + (size_t)nsub);
    if (word == NULL)
        return -1;
    uint64_t *pattern = word + k, *sub_word = word + 2 * k;
    uint64_t *sub_pattern = word + 3 * k;
    int64_t *pass = (int64_t *)(word + 4 * k);
    uint8_t *mark = (uint8_t *)(word + 5 * k);
    const int cshift = 64 - (int)a->chunk_log2, sshift = 64 - (int)a->sub_log2;
    for (int64_t j = 0; j < k; j++) {
        const uint64_t h = filter_slot(keys[j], 0);
        word[j] = h >> cshift;
        pattern[j] = bloom_pattern(h, cshift);
        sub_word[j] = h >> sshift;
        sub_pattern[j] = bloom_pattern(h, sshift);
    }
    int64_t nr = 0, total = 0, first = 0; /* first: row 0 of chunk c */
    for (int64_t c = 0; c < nchunks; first += counts[c++]) {
        /* the keys inside the chunk's zone are keys[lo:hi] */
        const int64_t lo = lower_bound(keys, k, a->mins[z][c]);
        const int64_t hi = bound(keys, k, a->maxs[z][c], 1);
        const uint64_t *cf = a->chunk_filters[z] + (c << a->chunk_log2);
        int64_t npass = 0;
        for (int64_t t = lo; t < hi; t++) {
            pass[npass] = t;
            npass += (cf[word[t]] & pattern[t]) == pattern[t];
        }
        if (npass == 0)
            continue;
        const int64_t *ends = a->sub_ends + c * nsub, at = c * a->capacity;
        const uint64_t *sf = a->sub_filters[z] + ((c * nsub) << a->sub_log2);
        memset(mark, 0, (size_t)nsub);
        for (int64_t i = 0; i < npass; i++)
            sub_pass(sf + sub_word[pass[i]] * nsub, nsub, sub_pattern[pass[i]],
                     mark);
        for (int64_t s = 0, r = 0; s < nsub; r = ends[s++]) {
            if (!mark[s] || ends[s] == r)
                continue;
            total += ends[s] - r;
            /* buffer positions and rows run on together past a full chunk */
            if (nr > 0 && ranges[3 * nr - 2] == at + r) {
                ranges[3 * nr - 2] = at + ends[s];
            } else {
                ranges[3 * nr] = at + r;
                ranges[3 * nr + 1] = at + ends[s];
                ranges[3 * nr + 2] = first + r;
                nr++;
            }
        }
    }
    free(word);
    *rows = total;
    return nr;
}

/* The read of a planned probe: the rows of the n (lo, hi, row) triples of
 * pi_probe_plan whose value in the int64 column v (its buffer positions)
 * occurs in the strictly ascending keys[0:k]. The rows pass the key bit
 * filter that pi_in_positions uses, built once per call, and a binary
 * search confirms each hit. Writes each hit's rowID, base plus its
 * partition row, to ids and its value to vals, in row order; both need
 * room for the triples' rows. Returns the hit count, or -1 when the key
 * filter cannot be allocated. */
int64_t pi_probe(const int64_t *v, const int64_t *ranges, int64_t n,
                 const int64_t *keys, int64_t k, int64_t base, int64_t *ids,
                 int64_t *vals)
{
    if (k == 0 || n == 0)
        return 0;
    struct key_filter f;
    if (key_filter_build(&f, keys, k) < 0)
        return -1;
    int64_t count = 0;
    for (int64_t r = 0; r < n; r++) {
        const int64_t *range = ranges + 3 * r;
        const int64_t shift = base + range[2] - range[0];
        /* the hits' buffer positions go to ids[count:], then each
         * confirmed one moves down to its rowID at ids[count] */
        const int64_t hits = key_filter_pass(&f, v, range[0], range[1],
                                             ids + count);
        for (int64_t t = count, end = count + hits; t < end; t++) {
            const int64_t p = ids[t];
            ids[count] = shift + p;
            vals[count] = v[p];
            count += sorted_contains(keys, k, v[p]);
        }
    }
    free(f.bits);
    return count;
}

/* Keep-mask of one longest non-decreasing (non-increasing when descending
 * is set) subsequence of v[0:n], by the patience method in O(n log n).
 *
 * tails[k] is the smallest (largest, descending) tail of a run of length
 * k + 1 and tidx[k] its position; each element goes to the bisect_right
 * slot and links to the tail one slot below. The walk back from the last
 * tail sets keep[i] to 1 for every kept element and 0 elsewhere. This is
 * patchindex.patch_index.lss_keep_mask step for step, so the masks are
 * identical. Returns the kept count, or -1 when allocation fails. */
int64_t pi_lss_keep(const int64_t *v, int64_t n, int descending,
                    uint8_t *keep)
{
    if (n == 0)
        return 0;
    int64_t *tails = malloc((size_t)n * sizeof *tails);
    int64_t *tidx = malloc((size_t)n * sizeof *tidx);
    int64_t *prev = malloc((size_t)n * sizeof *prev);
    if (tails == NULL || tidx == NULL || prev == NULL) {
        free(tails);
        free(tidx);
        free(prev);
        return -1;
    }
    int64_t len = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t x = v[i];
        int64_t lo = 0, hi = len;
        while (lo < hi) {
            const int64_t mid = lo + ((hi - lo) >> 1);
            if (descending ? tails[mid] < x : tails[mid] > x)
                hi = mid;
            else
                lo = mid + 1;
        }
        prev[i] = lo ? tidx[lo - 1] : -1;
        tails[lo] = x;
        tidx[lo] = i;
        len += lo == len;
    }
    memset(keep, 0, (size_t)n);
    for (int64_t i = tidx[len - 1]; i >= 0; i = prev[i])
        keep[i] = 1;
    free(tails);
    free(tidx);
    free(prev);
    return len;
}
