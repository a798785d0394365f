/* Native kernels for the fused neighbor+link pass and the component
 * merge inner loop.
 *
 * Compiled on demand by repro/native/cext.py with the system C
 * compiler and bound through ctypes.  Every routine mirrors a Python
 * reference path bit for bit:
 *
 *   score_block       <-> repro.core.neighbors.SparseTransactionScorer
 *                         .neighbor_rows (same integer intersections,
 *                         same float64 division, same >= theta test),
 *                         restricted to the upper triangle j > row --
 *                         similarity is symmetric, so each pair is
 *                         scored once and mirror_neighbors rebuilds
 *                         the full ascending lists afterwards
 *   mirror_neighbors  <-> the trivial "every list contains both
 *                         directions" property of the reference lists
 *   pair_count_reduce <-> repro.parallel.links.pair_link_counts
 *                         (integer pair-code counting; sort order is
 *                         value order either way)
 *   merge_component   <-> repro.core.merge.component_merge_stream
 *                         (same lazy-heap selection, same goodness
 *                         arithmetic and association, same heap_ops)
 *   assign_block      <-> repro.core.assign.AssignmentIndex
 *                         .assign_with_scores (same candidate gather
 *                         over the inverted index, same float64
 *                         inter/union >= theta test, same first-max
 *                         argmax over the normalised cluster counts)
 *
 * Transaction/item ids travel as int32 (halving the bandwidth of the
 * randomly-accessed hot arrays); callers guarantee n < 2^31.
 *
 * IEEE-754 double arithmetic with the default rounding mode is assumed
 * and required -- build WITHOUT -ffast-math.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

typedef int64_t i64;
typedef int32_t i32;

/* ------------------------------------------------------------------ */
/* sorting helpers                                                     */
/* ------------------------------------------------------------------ */

static int i32_cmp(const void *a, const void *b)
{
    i32 x = *(const i32 *)a, y = *(const i32 *)b;
    return (x > y) - (x < y);
}

/* first index in arr[lo, hi) with arr[idx] > key (arrays ascending) */
static i64 upper_bound_i32(const i32 *arr, i64 lo, i64 hi, i32 key)
{
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (arr[mid] <= key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* LSD radix sort (16-bit digits) for non-negative int64 keys.
 * Returns 0, or -1 on allocation failure (caller falls back). */
static int radix_sort_i64(i64 *keys, i64 len)
{
    if (len < 2)
        return 0;
    i64 maxv = 0;
    for (i64 i = 0; i < len; i++)
        if (keys[i] > maxv)
            maxv = keys[i];
    i64 *tmp = (i64 *)malloc((size_t)len * sizeof(i64));
    i64 *hist = (i64 *)malloc(65536 * sizeof(i64));
    if (!tmp || !hist) {
        free(tmp);
        free(hist);
        return -1;
    }
    i64 *src = keys, *dst = tmp;
    for (int shift = 0; shift < 64 && (maxv >> shift) != 0; shift += 16) {
        memset(hist, 0, 65536 * sizeof(i64));
        for (i64 i = 0; i < len; i++)
            hist[(src[i] >> shift) & 0xFFFF]++;
        i64 pos = 0;
        for (i64 d = 0; d < 65536; d++) {
            i64 c = hist[d];
            hist[d] = pos;
            pos += c;
        }
        for (i64 i = 0; i < len; i++)
            dst[hist[(src[i] >> shift) & 0xFFFF]++] = src[i];
        i64 *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != keys)
        memcpy(keys, src, (size_t)len * sizeof(i64));
    free(tmp);
    free(hist);
    return 0;
}

/* i32 twin of radix_sort_i64: half the memory traffic per pass. */
static int radix_sort_i32(i32 *keys, i64 len)
{
    if (len < 2)
        return 0;
    i32 maxv = 0;
    for (i64 i = 0; i < len; i++)
        if (keys[i] > maxv)
            maxv = keys[i];
    i32 *tmp = (i32 *)malloc((size_t)len * sizeof(i32));
    i64 *hist = (i64 *)malloc(65536 * sizeof(i64));
    if (!tmp || !hist) {
        free(tmp);
        free(hist);
        return -1;
    }
    i32 *src = keys, *dst = tmp;
    for (int shift = 0; shift < 32 && (maxv >> shift) != 0; shift += 16) {
        memset(hist, 0, 65536 * sizeof(i64));
        for (i64 i = 0; i < len; i++)
            hist[(src[i] >> shift) & 0xFFFF]++;
        i64 pos = 0;
        for (i64 d = 0; d < 65536; d++) {
            i64 c = hist[d];
            hist[d] = pos;
            pos += c;
        }
        for (i64 i = 0; i < len; i++)
            dst[hist[(src[i] >> shift) & 0xFFFF]++] = src[i];
        i32 *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != keys)
        memcpy(keys, src, (size_t)len * sizeof(i32));
    free(tmp);
    free(hist);
    return 0;
}

/* ------------------------------------------------------------------ */
/* 1. fused block scoring: CSR transactions -> sorted neighbor lists   */
/* ------------------------------------------------------------------ */

/* Score rows [start, stop) of the transaction similarity matrix and
 * emit each row's ascending UPPER-TRIANGLE neighbor indices (j > row)
 * at threshold theta; mirror_neighbors rebuilds the full lists.
 *
 * indptr/indices      CSR of transactions -> sorted item codes
 * t_indptr/t_indices  transpose CSR of items -> ascending txn ids
 * sizes               |T_i| per transaction
 * acc, touched        caller int32 workspaces of length n; acc must
 *                     arrive zeroed (it is returned zeroed)
 * out_indptr          length stop-start+1
 * out_indices, cap    neighbor-index buffer and its capacity
 *
 * Intersection counts are accumulated per row by walking the transpose
 * lists of the row's items -- only transactions sharing an item are
 * touched, the sparse-product work of the scipy scorer without ever
 * materialising the product.  The lists are ascending, so a binary
 * search per item skips straight to the j > row suffix: similarity is
 * symmetric and each unordered pair is therefore scored exactly once,
 * with the identical integer intersection count (every shared item
 * still contributes exactly +1).  A conservative prefilter skips the
 * division for pairs that cannot clear theta; survivors get the exact
 * float64 (double)inter / (double)denom >= theta test, matching the
 * reference bit for bit (theta > 0 is a precondition: theta == 0 makes
 * everyone a neighbor and is answered by the Python path directly).
 *
 * Returns the total neighbors written, or -(needed) when cap is too
 * small -- counting continues so the caller can retry with the exact
 * size in one round trip.
 */
long long score_block(
    const i64 *indptr, const i32 *indices,
    const i64 *t_indptr, const i32 *t_indices,
    const i32 *sizes,
    i64 n, i64 start, i64 stop,
    double theta, i64 overlap,
    i32 *acc, i32 *touched,
    i64 *out_indptr,
    i32 *out_indices, i64 cap)
{
    i64 total = 0;
    int overflow = 0;
    out_indptr[0] = 0;
    for (i64 row = start; row < stop; row++) {
        i64 n_touched = 0;
        i64 p = indptr[row], p_end = indptr[row + 1];
        if (p < p_end) {
            /* first item: every transaction in its suffix is fresh,
             * so skip the acc==0 test entirely */
            i64 item = indices[p++];
            i64 q = upper_bound_i32(
                t_indices, t_indptr[item], t_indptr[item + 1], (i32)row
            );
            for (; q < t_indptr[item + 1]; q++) {
                i32 j = t_indices[q];
                acc[j] = 1;
                touched[n_touched++] = j;
            }
        }
        for (; p < p_end; p++) {
            i64 item = indices[p];
            i64 q = upper_bound_i32(
                t_indices, t_indptr[item], t_indptr[item + 1], (i32)row
            );
            for (; q < t_indptr[item + 1]; q++) {
                i32 j = t_indices[q];
                i32 a = acc[j];
                /* branchless: the store is unconditional, the cursor
                 * only advances for first touches (compiles to cmov /
                 * setcc instead of a mispredict-prone branch) */
                touched[n_touched] = j;
                n_touched += (a == 0);
                acc[j] = a + 1;
            }
        }
        i64 sa = sizes[row];
        i64 row_deg = 0;
        i32 *dst = out_indices + total;
        for (i64 t = 0; t < n_touched; t++) {
            i32 j = touched[t];
            i64 inter = acc[j];
            acc[j] = 0;
            i64 sb = sizes[j];
            double denom;
            if (overlap) {
                denom = (double)(sa < sb ? sa : sb);
                if ((double)inter < theta * denom - 1e-6)
                    continue;
            } else {
                denom = (double)(sa + sb - inter);
                if ((1.0 + theta) * (double)inter
                        < theta * (double)(sa + sb) - 1e-6)
                    continue;
            }
            if ((double)inter / denom >= theta) {
                if (!overflow && total + row_deg < cap)
                    dst[row_deg] = j;
                row_deg++;
            }
        }
        if (!overflow && total + row_deg > cap)
            overflow = 1;
        if (!overflow && row_deg > 1)
            qsort(dst, (size_t)row_deg, sizeof(i32), i32_cmp);
        total += row_deg;
        out_indptr[row - start + 1] = total;
    }
    if (overflow)
        return -total;
    return total;
}

/* Rebuild the full ascending neighbor lists from the upper-triangle
 * ones: full[i] = {j < i : i in upper[j]} ++ upper[i].  The outer loop
 * runs i ascending and upper lists are ascending, so every full list
 * comes out ascending without any sort -- mirrored entries j < i land
 * before i's own suffix entries, both in increasing order.
 *
 * full_indptr has length n+1, full_indices capacity 2 * total.
 * Returns the full total, or -1 on allocation failure.
 */
long long mirror_neighbors(
    const i64 *up_indptr, const i32 *up_indices, i64 n,
    i64 *full_indptr, i32 *full_indices)
{
    i64 *cur = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    if (!cur)
        return -1;
    for (i64 i = 0; i < n; i++)
        cur[i] = up_indptr[i + 1] - up_indptr[i];
    i64 total = up_indptr[n];
    for (i64 p = 0; p < total; p++)
        cur[up_indices[p]]++;
    full_indptr[0] = 0;
    for (i64 i = 0; i < n; i++) {
        full_indptr[i + 1] = full_indptr[i] + cur[i];
        cur[i] = full_indptr[i];
    }
    for (i64 i = 0; i < n; i++) {
        for (i64 p = up_indptr[i]; p < up_indptr[i + 1]; p++) {
            i32 j = up_indices[p];
            full_indices[cur[i]++] = j;
            full_indices[cur[j]++] = (i32)i;
        }
    }
    free(cur);
    return full_indptr[n];
}

/* ------------------------------------------------------------------ */
/* 2. Figure 4 pair-code counting over neighbor lists                  */
/* ------------------------------------------------------------------ */

/* Emit the pair code i*n+j (i < j) for every unordered pair drawn
 * from each ascending neighbor list, sort the codes, and run-length
 * reduce them in place.  codes/counts have capacity total_pairs
 * (= sum over lists of m*(m-1)/2, computed by the caller from the
 * list lengths); the reduced table occupies their prefix.
 *
 * Returns the number of unique codes, or -1 on allocation failure.
 */
long long pair_count_reduce(
    const i64 *list_indptr, const i32 *list_indices,
    i64 n_lists, i64 n,
    i64 *codes, i64 *counts, i64 total_pairs)
{
    if (n > 0 && n <= 46340) {
        /* n*n < 2^31: the codes fit int32, so emit and sort 4-byte
         * keys -- half the memory traffic of the i64 path through the
         * dominant (emit + radix) stages -- then widen on reduce.
         * Same integer values, same ascending order, same counts. */
        i32 *c32 = (i32 *)malloc(
            (size_t)(total_pairs > 0 ? total_pairs : 1) * sizeof(i32));
        if (c32 != NULL) {
            i64 pos = 0;
            for (i64 l = 0; l < n_lists; l++) {
                i64 lo = list_indptr[l], hi = list_indptr[l + 1];
                for (i64 a = lo; a < hi; a++) {
                    i32 base = (i32)(list_indices[a] * (i32)n);
                    for (i64 b = a + 1; b < hi; b++)
                        c32[pos++] = base + list_indices[b];
                }
            }
            if (pos == 0) {
                free(c32);
                return 0;
            }
            if (radix_sort_i32(c32, pos) != 0) {
                free(c32);
                return -1;
            }
            i64 u = 0, i = 0;
            while (i < pos) {
                i32 c = c32[i];
                i64 j = i + 1;
                while (j < pos && c32[j] == c)
                    j++;
                codes[u] = (i64)c;
                counts[u] = j - i;
                u++;
                i = j;
            }
            free(c32);
            return u;
        }
        /* allocation failed: fall through to the i64 path */
    }
    i64 pos = 0;
    for (i64 l = 0; l < n_lists; l++) {
        i64 lo = list_indptr[l], hi = list_indptr[l + 1];
        for (i64 a = lo; a < hi; a++) {
            i64 base = (i64)list_indices[a] * n;
            for (i64 b = a + 1; b < hi; b++)
                codes[pos++] = base + (i64)list_indices[b];
        }
    }
    /* pos == total_pairs by construction */
    (void)total_pairs;
    if (pos == 0)
        return 0;
    if (radix_sort_i64(codes, pos) != 0)
        return -1;
    i64 u = 0, i = 0;
    while (i < pos) {
        i64 c = codes[i];
        i64 j = i + 1;
        while (j < pos && codes[j] == c)
            j++;
        codes[u] = c;
        counts[u] = j - i;
        u++;
        i = j;
    }
    return u;
}

/* ------------------------------------------------------------------ */
/* 2b. fused serving assignment over the inverted index                */
/* ------------------------------------------------------------------ */

/* Assign a CSR-encoded query block against the item->representative
 * inverted index: candidate gather, Jaccard threshold test and
 * best-cluster argmax fused into one pass per point.
 *
 * q_indptr/q_items    CSR of query points -> in-vocabulary item codes
 * q_sizes             true item count per point (OOV items enlarge
 *                     the union without appearing in q_items)
 * inv_indptr/inv_reps CSC of the representative indicator matrix:
 *                     item -> ascending representative ids
 * rep_sizes           |rep| per representative (exact integers)
 * rep_cluster         representative -> cluster id
 * normalisers         (|L_c| + 1)^f per cluster
 * acc, touched        int32 workspaces; acc has length n_reps and
 *                     must arrive zeroed (it is returned zeroed);
 *                     touched has length n_reps + 1 -- the branchless
 *                     first-touch write lands in the spare slot when
 *                     every representative is already touched
 * ccounts, ctouched   i64/i32 workspaces of length n_clusters;
 *                     ccounts must arrive zeroed (returned zeroed)
 * out_labels/out_best winning cluster (-1 = outlier) and its
 *                     normalised score (0.0 for outliers) per point
 *
 * theta > 0 is a precondition (theta == 0 makes every representative
 * a neighbor and is answered by the Python path with constant
 * counts).  A candidate has inter >= 1, hence union >= 1, so the
 * float64 quotient matches the reference's guarded division bit for
 * bit.  The argmax scans only the touched clusters: an untouched
 * cluster scores exactly 0.0 while any neighbor count >= 1 divided by
 * a positive normaliser scores > 0, so the global first-max winner is
 * always among the touched clusters -- ties break toward the lowest
 * cluster id, np.argmax order.  (If every touched cluster still
 * scores 0.0 -- a degenerate normaliser overflowing to inf -- the
 * global argmax is cluster 0, restored below.)
 *
 * Returns the number of outliers in the block.
 */
long long assign_block(
    const i64 *q_indptr, const i32 *q_items, const i64 *q_sizes, i64 b,
    const i64 *inv_indptr, const i32 *inv_reps,
    const i32 *rep_sizes, const i32 *rep_cluster,
    const double *normalisers,
    i64 n_clusters, double theta,
    i32 *acc, i32 *touched,
    i64 *ccounts, i32 *ctouched,
    i64 *out_labels, double *out_best)
{
    i64 n_outliers = 0;
    for (i64 i = 0; i < b; i++) {
        i64 n_touched = 0;
        i64 p = q_indptr[i], p_end = q_indptr[i + 1];
        if (p < p_end) {
            /* first item: every posting entry is a fresh touch */
            i64 item = q_items[p++];
            for (i64 q = inv_indptr[item]; q < inv_indptr[item + 1]; q++) {
                i32 r = inv_reps[q];
                acc[r] = 1;
                touched[n_touched++] = r;
            }
        }
        for (; p < p_end; p++) {
            i64 item = q_items[p];
            for (i64 q = inv_indptr[item]; q < inv_indptr[item + 1]; q++) {
                i32 r = inv_reps[q];
                i32 a = acc[r];
                /* branchless first-touch tracking (see score_block) */
                touched[n_touched] = r;
                n_touched += (a == 0);
                acc[r] = a + 1;
            }
        }
        i64 qsize = q_sizes[i];
        i64 n_clu = 0;
        for (i64 t = 0; t < n_touched; t++) {
            i32 r = touched[t];
            i64 inter = acc[r];
            acc[r] = 0;
            i64 uni = (i64)rep_sizes[r] + qsize - inter;
            if ((double)inter / (double)uni >= theta) {
                i32 c = rep_cluster[r];
                if (ccounts[c] == 0)
                    ctouched[n_clu++] = c;
                ccounts[c]++;
            }
        }
        double best = 0.0;
        i64 lab = -1;
        for (i64 t = 0; t < n_clu; t++) {
            i32 c = ctouched[t];
            double s = (double)ccounts[c] / normalisers[c];
            ccounts[c] = 0;
            if (s > best || (s == best && (lab < 0 || (i64)c < lab))) {
                best = s;
                lab = c;
            }
        }
        if (lab >= 0 && best == 0.0)
            lab = 0; /* all scores 0.0: np.argmax picks index 0 */
        if (lab < 0)
            n_outliers++;
        out_labels[i] = lab;
        out_best[i] = best;
    }
    (void)n_clusters;
    return n_outliers;
}


/* ------------------------------------------------------------------ */
/* 3. component merge inner loop                                       */
/* ------------------------------------------------------------------ */

/* Cross-link rows: per-slot arrays of (partner, count), sorted by
 * partner id.  Deletion is lazy -- dead partners are skipped on read --
 * and appends only ever add the freshly created slot id, which exceeds
 * every id already present, so the sorted invariant is append-safe. */
typedef struct {
    i64 partner;
    double count;
} Link;

typedef struct {
    Link *e;
    i64 len, cap;
} Row;

static int link_cmp(const void *a, const void *b)
{
    i64 x = ((const Link *)a)->partner, y = ((const Link *)b)->partner;
    return (x > y) - (x < y);
}

static int row_push(Row *r, i64 partner, double count)
{
    if (r->len == r->cap) {
        i64 cap = r->cap ? r->cap * 2 : 4;
        Link *e = (Link *)realloc(r->e, (size_t)cap * sizeof(Link));
        if (!e)
            return -1;
        r->e = e;
        r->cap = cap;
    }
    r->e[r->len].partner = partner;
    r->e[r->len].count = count;
    r->len++;
    return 0;
}

/* Binary min-heap of (neg_goodness, partner) entries under the same
 * lexicographic order as Python's (float, int) tuple comparison.  Only
 * the pop sequence is observable, and the minimum of the live multiset
 * is representation-independent, so matching heapq's internal layout
 * is not required -- but the sift routines mirror it anyway. */
typedef struct {
    double neg;
    i64 partner;
} HeapEnt;

typedef struct {
    HeapEnt *e;
    i64 len, cap;
} Heap;

static int heap_ent_lt(HeapEnt a, HeapEnt b)
{
    if (a.neg < b.neg)
        return 1;
    if (a.neg > b.neg)
        return 0;
    return a.partner < b.partner;
}

static void heap_siftdown(Heap *h, i64 startpos, i64 pos)
{
    HeapEnt item = h->e[pos];
    while (pos > startpos) {
        i64 parent = (pos - 1) >> 1;
        if (heap_ent_lt(item, h->e[parent])) {
            h->e[pos] = h->e[parent];
            pos = parent;
        } else
            break;
    }
    h->e[pos] = item;
}

static void heap_siftup(Heap *h, i64 pos)
{
    i64 endpos = h->len;
    i64 startpos = pos;
    HeapEnt item = h->e[pos];
    i64 child = 2 * pos + 1;
    while (child < endpos) {
        i64 right = child + 1;
        if (right < endpos && !heap_ent_lt(h->e[child], h->e[right]))
            child = right;
        h->e[pos] = h->e[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h->e[pos] = item;
    heap_siftdown(h, startpos, pos);
}

static void heap_heapify(Heap *h)
{
    for (i64 i = h->len / 2 - 1; i >= 0; i--)
        heap_siftup(h, i);
}

static int heap_push(Heap *h, double neg, i64 partner)
{
    if (h->len == h->cap) {
        i64 cap = h->cap ? h->cap * 2 : 8;
        HeapEnt *e = (HeapEnt *)realloc(h->e, (size_t)cap * sizeof(HeapEnt));
        if (!e)
            return -1;
        h->e = e;
        h->cap = cap;
    }
    h->e[h->len].neg = neg;
    h->e[h->len].partner = partner;
    h->len++;
    heap_siftdown(h, 0, h->len - 1);
    return 0;
}

static HeapEnt heap_pop(Heap *h)
{
    HeapEnt last = h->e[--h->len];
    if (h->len == 0)
        return last;
    HeapEnt ret = h->e[0];
    h->e[0] = last;
    heap_siftup(h, 0);
    return ret;
}

/* goodness of merging clusters of sizes ni, nj with `count` cross
 * links.  ptable[k] = k^(1+2f), computed Python-side by the exact
 * scalar pow of repro.core.goodness.PowerTable; the denominator keeps
 * the reference association (P[lo+hi] - P[lo]) - P[hi] with lo <= hi. */
static double goodness_eval(double count, i64 ni, i64 nj,
                            const double *ptable, i64 naive)
{
    if (naive)
        return count;
    i64 lo, hi;
    if (ni > nj) {
        lo = nj;
        hi = ni;
    } else {
        lo = ni;
        hi = nj;
    }
    double denom = (ptable[lo + hi] - ptable[lo]) - ptable[hi];
    if (denom <= 0.0)
        return count > 0.0 ? INFINITY : 0.0;
    return count / denom;
}

/* Agglomerate one connected component to exhaustion.
 *
 * Mirrors repro.core.merge.component_merge_stream statement for
 * statement: slots s..2s-2 are the merged clusters in creation order,
 * selection is the doubly-lazy token scheme (local heaps of immutable
 * (-g, partner) entries, a global token heap, best_token lower
 * bounds), and heap_ops counts exactly what the Python loop counts.
 *
 * Outputs (capacity s-1 each) receive the merge stream; returns the
 * number of merges, or -1 on allocation failure.
 */
long long merge_component(
    i64 s,
    const i64 *sizes_in,
    i64 n_pairs,
    const i64 *pair_lo, const i64 *pair_hi, const double *pair_count,
    const double *ptable, i64 ptable_len,
    i64 naive,
    i64 *out_left, i64 *out_right, double *out_goodness, i64 *out_sizes,
    i64 *heap_ops_out)
{
    (void)ptable_len;
    i64 n_slots = 2 * s - 1;
    long long result = -1;
    i64 n_merges = 0;
    long long heap_ops = 0;

    i64 *size = (i64 *)calloc((size_t)n_slots, sizeof(i64));
    unsigned char *alive = (unsigned char *)calloc((size_t)n_slots, 1);
    double *best_token = (double *)malloc((size_t)n_slots * sizeof(double));
    Row *rows = (Row *)calloc((size_t)n_slots, sizeof(Row));
    Heap *local = (Heap *)calloc((size_t)n_slots, sizeof(Heap));
    Heap heap = {NULL, 0, 0};
    if (!size || !alive || !best_token || !rows || !local)
        goto done;
    for (i64 x = 0; x < s; x++) {
        size[x] = sizes_in[x];
        alive[x] = 1;
    }
    for (i64 x = 0; x < n_slots; x++)
        best_token[x] = -INFINITY;

    /* initial rows and local heaps, exact-size allocations */
    for (i64 p = 0; p < n_pairs; p++) {
        rows[pair_lo[p]].cap++;
        rows[pair_hi[p]].cap++;
    }
    for (i64 x = 0; x < s; x++) {
        if (rows[x].cap) {
            rows[x].e = (Link *)malloc((size_t)rows[x].cap * sizeof(Link));
            local[x].e =
                (HeapEnt *)malloc((size_t)rows[x].cap * sizeof(HeapEnt));
            local[x].cap = rows[x].cap;
            if (!rows[x].e || !local[x].e)
                goto done;
        }
    }
    for (i64 p = 0; p < n_pairs; p++) {
        i64 a = pair_lo[p], b = pair_hi[p];
        double c = pair_count[p];
        double neg = -goodness_eval(c, size[a], size[b], ptable, naive);
        rows[a].e[rows[a].len].partner = b;
        rows[a].e[rows[a].len].count = c;
        rows[a].len++;
        rows[b].e[rows[b].len].partner = a;
        rows[b].e[rows[b].len].count = c;
        rows[b].len++;
        local[a].e[local[a].len].neg = neg;
        local[a].e[local[a].len].partner = b;
        local[a].len++;
        local[b].e[local[b].len].neg = neg;
        local[b].e[local[b].len].partner = a;
        local[b].len++;
    }
    for (i64 x = 0; x < s; x++)
        if (rows[x].len > 1)
            qsort(rows[x].e, (size_t)rows[x].len, sizeof(Link), link_cmp);

    /* token seeding: one token per slot whose best goodness > 0 */
    heap.cap = s > 0 ? s : 1;
    heap.e = (HeapEnt *)malloc((size_t)heap.cap * sizeof(HeapEnt));
    if (!heap.e)
        goto done;
    for (i64 x = 0; x < s; x++) {
        Heap *h = &local[x];
        if (h->len == 0)
            continue;
        heap_heapify(h);
        double head_neg = h->e[0].neg;
        if (head_neg < 0.0) {
            heap.e[heap.len].neg = head_neg;
            heap.e[heap.len].partner = x;
            heap.len++;
            best_token[x] = -head_neg;
        }
    }
    heap_heapify(&heap);
    heap_ops = heap.len;

    i64 alive_count = s;
    i64 next_slot = s;
    while (alive_count > 1 && heap.len > 0) {
        HeapEnt tok = heap_pop(&heap);
        heap_ops++;
        i64 u = tok.partner;
        double neg_g = tok.neg;
        if (!alive[u])
            continue;
        Heap *hu = &local[u];
        while (hu->len > 0 && !alive[hu->e[0].partner]) {
            heap_pop(hu);
            heap_ops++;
        }
        if (hu->len == 0) {
            best_token[u] = -INFINITY;
            continue;
        }
        double head_neg = hu->e[0].neg;
        if (head_neg != neg_g) {
            /* stale token: u's best changed since the push; re-arm */
            if (head_neg < 0.0) {
                if (heap_push(&heap, head_neg, u) != 0)
                    goto done;
                heap_ops++;
                best_token[u] = -head_neg;
            } else
                best_token[u] = -INFINITY;
            continue;
        }
        i64 v = hu->e[0].partner;
        i64 w = next_slot++;

        /* row_w = merge(row_u \ {v}, row_v \ {u}) over live partners,
         * u's contribution first in the float sum -- the reference's
         * dict(row_u)-then-add-row_v order */
        Row *ru = &rows[u], *rv = &rows[v];
        Row rw = {NULL, 0, 0};
        rw.cap = ru->len + rv->len;
        if (rw.cap) {
            rw.e = (Link *)malloc((size_t)rw.cap * sizeof(Link));
            if (!rw.e)
                goto done;
        }
        i64 iu = 0, iv = 0;
        for (;;) {
            while (iu < ru->len
                   && (!alive[ru->e[iu].partner] || ru->e[iu].partner == v))
                iu++;
            while (iv < rv->len
                   && (!alive[rv->e[iv].partner] || rv->e[iv].partner == u))
                iv++;
            if (iu >= ru->len && iv >= rv->len)
                break;
            if (iv >= rv->len
                || (iu < ru->len && ru->e[iu].partner < rv->e[iv].partner)) {
                rw.e[rw.len++] = ru->e[iu++];
            } else if (iu >= ru->len
                       || rv->e[iv].partner < ru->e[iu].partner) {
                rw.e[rw.len++] = rv->e[iv++];
            } else {
                rw.e[rw.len].partner = ru->e[iu].partner;
                rw.e[rw.len].count = ru->e[iu].count + rv->e[iv].count;
                rw.len++;
                iu++;
                iv++;
            }
        }
        free(ru->e);
        ru->e = NULL;
        ru->len = ru->cap = 0;
        free(rv->e);
        rv->e = NULL;
        rv->len = rv->cap = 0;
        rows[w] = rw;
        free(local[u].e);
        local[u].e = NULL;
        local[u].len = local[u].cap = 0;
        free(local[v].e);
        local[v].e = NULL;
        local[v].len = local[v].cap = 0;
        alive[u] = 0;
        alive[v] = 0;
        alive[w] = 1;
        i64 size_w = size[u] + size[v];
        size[w] = size_w;
        alive_count--;

        out_left[n_merges] = u;
        out_right[n_merges] = v;
        out_goodness[n_merges] = -neg_g;
        out_sizes[n_merges] = size_w;
        n_merges++;

        /* partner updates: x gains w (dead u/v entries stay, skipped
         * lazily); local_w collects (neg, x) then heapifies */
        Heap *hw = &local[w];
        if (rw.len) {
            hw->e = (HeapEnt *)malloc((size_t)rw.len * sizeof(HeapEnt));
            if (!hw->e)
                goto done;
            hw->cap = rw.len;
        }
        for (i64 t = 0; t < rows[w].len; t++) {
            i64 x = rows[w].e[t].partner;
            double c = rows[w].e[t].count;
            if (row_push(&rows[x], w, c) != 0)
                goto done;
            double g = goodness_eval(c, size[x], size_w, ptable, naive);
            double neg = -g;
            if (heap_push(&local[x], neg, w) != 0)
                goto done;
            hw->e[hw->len].neg = neg;
            hw->e[hw->len].partner = x;
            hw->len++;
            if (g > best_token[x] && g > 0.0) {
                if (heap_push(&heap, neg, x) != 0)
                    goto done;
                best_token[x] = g;
                heap_ops++;
            }
        }
        heap_ops += 1 + rows[w].len;
        if (hw->len > 0) {
            heap_heapify(hw);
            double hn = hw->e[0].neg;
            if (hn < 0.0) {
                if (heap_push(&heap, hn, w) != 0)
                    goto done;
                best_token[w] = -hn;
                heap_ops++;
            }
        }
    }
    *heap_ops_out = heap_ops;
    result = n_merges;

done:
    if (rows)
        for (i64 x = 0; x < n_slots; x++)
            free(rows[x].e);
    if (local)
        for (i64 x = 0; x < n_slots; x++)
            free(local[x].e);
    free(heap.e);
    free(size);
    free(alive);
    free(best_token);
    free(rows);
    free(local);
    return result;
}
