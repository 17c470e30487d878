"""C kernel backend: scalar loops compiled on first use via ``ctypes``.

The hot-path kernels (see :mod:`repro.kernels`: ``place_block``,
``dynamic_window``, ``ring_assign``, ``ring_table``, ``space_trials``,
``torus_grid`` and ``torus_assign``) are a few dozen lines of portable
C99 each.  Rather than shipping a binary wheel, the source is embedded
here and compiled once per machine with the host C compiler (``$CC``,
else the first of ``cc``/``gcc``/``clang`` on ``PATH``) into a shared
library cached under ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``), keyed by a hash of the source and
:data:`CFLAGS` — editing either invalidates the cache, re-running does
not rebuild.  Everything degrades gracefully: no compiler, an
unwritable cache dir, or a failed compile raise :class:`RuntimeError`,
which the registry's auto-detection treats as "backend unavailable".

The C code mirrors :func:`repro.core.strategies.decide_row_scalar`
operation for operation (same minimum scan, same ``floor(u·k)+1``
tie-break rule — a C cast truncates toward zero, which is ``floor``
for the non-negative operand — same strict-inequality measure
preference), so its placements are bit-identical to the numpy
reference; the parity suite enforces this.  Those rules are written
once and defined per load width: the exported kernels place into
int64 loads, ``space_trials``' worker threads into a byte per server;
a bin that would pass 255 balls makes ``space_trials`` return
``False``, like a space it could not build, and the caller runs the
cell on its generic route.  ``space_trials`` also carries a copy of
numpy's PCG64 generator, so it draws the same numbers
``Generator.random`` would, and the ring it can build from them is the
one ``RingSpace.random`` builds — drawing the positions twice, a few
thousand at a time, rather than keeping all of them, and looking them
up in a compact bucket index (a byte per bucket and an int32 per 64
buckets) rather than an int32 table, so a ring trial's scratch is
about 10 bytes per server, loads included
(``tests/kernels/test_ring_kernel.py``).
The torus grid computes squared distances in cKDTree's periodic
arithmetic, so it finds the server cKDTree finds, and the 2-D torus
``space_trials`` builds from a generator is the one
``TorusSpace.random`` draws (``tests/kernels/test_torus_kernel.py``).
A torus trial decides each ball while looking its candidates up, in
the order the tie-break prefers, and skips the lookups that cannot
change the choice (every candidate is still drawn); it counts loads by
the grid's sorted server order, so a lookup needs no server index.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["build_backend", "load_library", "CFLAGS", "C_SOURCE"]

#: The kernel library source.  Inside a churn-free window ``kind == 0``
#: is an insert, ``1`` a delete and ``2`` a lookup (the codes of
#: ``repro.core.incremental``; ``EventKind.BIN_LEAVE`` is also 2, but
#: churn events are barriers and never enter a window).
C_SOURCE = r"""
#if defined(__linux__)
#define _GNU_SOURCE /* sched_getcpu, pthread_attr_setaffinity_np */
#endif
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <pthread.h>
#if defined(__linux__)
#include <sched.h>
#include <sys/mman.h>
#endif

/* Remap-aware candidate lookup: remap == NULL means identity. */
static inline int64_t bin_of(const int64_t *cand, const int64_t *remap,
                             int64_t j)
{
    int64_t c = cand[j];
    return remap ? remap[c] : c;
}

/* Best-effort cache-line warming; a no-op where unsupported. */
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH_RW(p) __builtin_prefetch((p), 1, 1)
#define PREFETCH_RO(p) __builtin_prefetch((p), 0, 1)
#else
#define PREFETCH_RW(p)
#define PREFETCH_RO(p)
#endif

/* Balls to look ahead in the placement loop.  The loop's serial
 * dependency is only the loads update of the *current* ball; the
 * candidate bins of future balls are already materialized in `bins`,
 * so their load entries can be warmed early.  At paper scale
 * (n = 2^20, loads = 8 MB) the loop is bound by cache-miss latency,
 * and ~16 balls of lookahead keeps that many independent misses in
 * flight (sweet spot measured on x86; harmless elsewhere).  Prefetch
 * never changes results — it only moves cache lines. */
#define PLACE_LOOKAHEAD 16

/* The placement rules, written once and defined per load width by
 * PLACEMENT(w, T, top): the exported kernels place into int64 loads
 * (w = i64, top = 0: no limit), the workers of space_trials into one byte
 * per server (w = u8, top = UINT8_MAX).  place_torus runs only in those
 * workers, so it is written for byte loads alone.
 *
 * decide_w is the twin of repro.core.strategies.decide_row_scalar: the
 * index of the chosen candidate among cand[0..d).  Strategy codes:
 * 0 random (the floor(u*k)+1'th tied index; the cast truncates, which is
 * floor for u*k >= 0), 1 first (the lowest tied index), 2 smaller and
 * 3 larger (the tied candidate of strictly smallest or largest measure)
 * — repro.kernels.STRATEGY_CODES.  Random and first always return in
 * their loops.
 *
 * place_block_w is the sequential greedy placement of one block of b
 * balls.  Two random-tie-break candidates take a branch-free decide: on
 * a tie floor(u*2)+1 picks the second exactly when u >= 0.5.  It returns
 * b, or the first ball whose chosen bin already holds top balls; that
 * ball and the ones after it are not placed.
 *
 * place_torus is place_block_u8 on a 2-D torus grid g, strategy random
 * or first, with loads indexed by grid position: ball t's candidates are
 * the points x[2 * (t * d + c)], and it looks them up (torus_nearest)
 * in the order its tie-break prefers, stopping once the ones not yet
 * looked up cannot change the choice, since an empty bin holds the
 * least load.  With d = 1 a ball looks up its one candidate.  Random
 * with d = 2 looks up candidate (u >= 0.5) first, which wins when its
 * bin is empty, and else the other, which wins only when strictly less
 * loaded.  For d >= 3 (and first at d = 2), lvl = (int64_t)(u * d):
 * first, and random at lvl 0, scan forward and stop at the first empty
 * bin, as the tied target floor(u * k) + 1 is then 1 for every tie
 * count k <= d (rounding is monotone); random at lvl d - 1 scans
 * backward from the last candidate and stops at the first empty bin,
 * as the target is then k, the last tied candidate, for every k <= d
 * (u * k rounds into [k - 1, k)).  Random at any other lvl looks up all
 * d.  cand holds d bins. */
typedef struct torus_index torus_index;
static int64_t torus_nearest(const torus_index *g, int64_t side, double qx,
                             double qy);

#define PLACEMENT(w, T, top)                                                 \
    static int64_t decide_##w(const T *loads, const int64_t *cand,           \
                              const int64_t *remap, int64_t d,               \
                              const double *measures, double u,              \
                              int64_t strategy)                              \
    {                                                                        \
        int64_t j, min_load = loads[bin_of(cand, remap, 0)];                 \
        for (j = 1; j < d; j++) {                                            \
            int64_t l = loads[bin_of(cand, remap, j)];                       \
            if (l < min_load)                                                \
                min_load = l;                                                \
        }                                                                    \
        if (strategy == 1) {                                                 \
            for (j = 0; j < d; j++)                                          \
                if (loads[bin_of(cand, remap, j)] == min_load)               \
                    return j;                                                \
        } else if (strategy == 0) {                                          \
            int64_t k = 0, target, seen = 0;                                 \
            for (j = 0; j < d; j++)                                          \
                if (loads[bin_of(cand, remap, j)] == min_load)               \
                    k++;                                                     \
            target = (int64_t)(u * (double)k) + 1;                           \
            for (j = 0; j < d; j++) {                                        \
                if (loads[bin_of(cand, remap, j)] == min_load) {             \
                    seen++;                                                  \
                    if (seen == target)                                      \
                        return j;                                            \
                }                                                            \
            }                                                                \
        } else if (strategy == 2) {                                          \
            int64_t best_j = -1;                                             \
            double best_key = HUGE_VAL;                                      \
            for (j = 0; j < d; j++) {                                        \
                int64_t b = bin_of(cand, remap, j);                          \
                if (loads[b] == min_load && measures[b] < best_key) {        \
                    best_j = j;                                              \
                    best_key = measures[b];                                  \
                }                                                            \
            }                                                                \
            return best_j;                                                   \
        } else {                                                             \
            int64_t best_j = -1;                                             \
            double best_key = -HUGE_VAL;                                     \
            for (j = 0; j < d; j++) {                                        \
                int64_t b = bin_of(cand, remap, j);                          \
                if (loads[b] == min_load && measures[b] > best_key) {        \
                    best_j = j;                                              \
                    best_key = measures[b];                                  \
                }                                                            \
            }                                                                \
            return best_j;                                                   \
        }                                                                    \
        return 0;                                                            \
    }                                                                        \
                                                                             \
    static int64_t place_block_##w(const int64_t *bins, const double *us,    \
                                   int64_t b, int64_t d, T *loads,           \
                                   const double *measures, int64_t strategy, \
                                   int64_t *heights)                         \
    {                                                                        \
        int64_t t, j;                                                        \
        for (t = 0; t < b; t++) {                                            \
            if (t + PLACE_LOOKAHEAD < b) {                                   \
                const int64_t *f = bins + (t + PLACE_LOOKAHEAD) * d;         \
                for (j = 0; j < d; j++)                                      \
                    PREFETCH_RW(&loads[f[j]]);                               \
            }                                                                \
            const int64_t *cand = bins + t * d;                              \
            int64_t chosen;                                                  \
            if (d == 2 && strategy == 0) {                                   \
                T l0 = loads[cand[0]], l1 = loads[cand[1]];                  \
                chosen = cand[(l1 < l0) | ((l1 == l0) & (us[t] >= 0.5))];    \
            } else {                                                         \
                chosen = cand[decide_##w(loads, cand, 0, d, measures, us[t], \
                                         strategy)];                         \
            }                                                                \
            if ((top) && loads[chosen] == (top))                             \
                return t;                                                    \
            if (heights)                                                     \
                heights[t] = (int64_t)loads[chosen] + 1;                     \
            loads[chosen] += 1;                                              \
        }                                                                    \
        return b;                                                            \
    }

PLACEMENT(i64, int64_t, 0)
#if defined(__SIZEOF_INT128__) /* byte loads serve space_trials alone */
PLACEMENT(u8, uint8_t, UINT8_MAX)

static int64_t place_torus(const torus_index *g, int64_t side,
                           const double *x, const double *us, int64_t b,
                           int64_t d, uint8_t *loads, int64_t strategy,
                           int64_t *heights, int64_t *cand)
{
    int64_t t, j, chosen, other;
    for (t = 0; t < b; t++, x += 2 * d) {
        double u = us[t];
        if (d == 1) {
            chosen = torus_nearest(g, side, x[0], x[1]);
        } else if (d == 2 && strategy == 0) {
            int64_t f = u >= 0.5;
            chosen = torus_nearest(g, side, x[2 * f], x[2 * f + 1]);
            if (loads[chosen] != 0) {
                other = torus_nearest(g, side, x[2 - 2 * f], x[3 - 2 * f]);
                if (loads[other] < loads[chosen])
                    chosen = other;
            }
        } else {
            int64_t lvl = (int64_t)(u * (double)d), i;
            int back = strategy == 0 && lvl == d - 1;
            int stop = back || strategy == 1 || lvl == 0;
            int64_t step = back ? -1 : 1;
            for (i = 0, j = back ? d - 1 : 0; i < d; i++, j += step) {
                cand[j] = torus_nearest(g, side, x[2 * j], x[2 * j + 1]);
                if (stop && loads[cand[j]] == 0)
                    break;
            }
            if (i == d)
                j = decide_u8(loads, cand, 0, d, 0, u, strategy);
            chosen = cand[j];
        }
        if (loads[chosen] == UINT8_MAX)
            return t;
        if (heights)
            heights[t] = (int64_t)loads[chosen] + 1;
        loads[chosen] += 1;
    }
    return b;
}

/* Levels of a load histogram row: every byte load. */
#define LOAD_LEVELS (UINT8_MAX + 1)

/* The histogram of n byte loads: h[l] becomes the number of loads equal
 * to l, for each of the LOAD_LEVELS levels.  They are counted one level
 * at a time up to the largest, 64 into byte counters at once, which
 * vectorizes: about 0.03 ns a server a level on x86, where one h[l]++
 * pass, whose equal neighbouring loads wait on each other's increments,
 * takes 1.4-1.8 ns. */
static void load_hist_u8(const uint8_t *loads, int64_t n, int64_t *h)
{
    int64_t i, j, end, l;
    uint8_t top = 0, c[64];
    for (i = 0; i < n; i++)
        top = loads[i] > top ? loads[i] : top;
    memset(h, 0, sizeof(int64_t) * LOAD_LEVELS);
    h[0] = n;
    for (l = 1; l <= top; l++) {
        const uint8_t level = (uint8_t)l;
        for (i = 0; i < n;) { /* no counter passes UINT8_MAX loads */
            end = n - i > UINT8_MAX * 64 ? i + UINT8_MAX * 64 : n;
            memset(c, 0, sizeof c);
            for (; i + 64 <= end; i += 64)
                for (j = 0; j < 64; j++)
                    c[j] += loads[i + j] == level;
            for (j = 0; i < end; i++)
                c[j++] += loads[i] == level;
            for (j = 0; j < 64; j++)
                h[l] += c[j];
        }
        h[0] -= h[l];
    }
}
#endif /* __SIZEOF_INT128__ */

/* Kernel 1: sequential greedy placement of one block of balls. */
void repro_place_block(const int64_t *bins, const double *us, int64_t b,
                       int64_t d, int64_t *loads, const double *measures,
                       int64_t strategy, int64_t *heights)
{
    place_block_i64(bins, us, b, d, loads, measures, strategy, heights);
}

/* Kernel 2: churn-free window of insert (kind 0), delete (kind 1) and
 * lookup (kind 2) ops, in order.  out, unless NULL, receives op i's
 * result in out[i]: the chosen bin, -1, or the ball's bin (-1 if
 * unplaced).  counts[0] += inserts applied, counts[1] += deletes
 * applied. */
void repro_dynamic_window(const int8_t *kinds, const int64_t *args,
                          int64_t start, int64_t stop, const int64_t *cands,
                          const double *us, int64_t d, const int64_t *remap,
                          int64_t *loads, const double *measures,
                          int64_t strategy, int64_t *ball_bin, int64_t *out,
                          int64_t *counts)
{
    int64_t i, ins = 0, dels = 0;
    for (i = start; i < stop; i++) {
        if (i + PLACE_LOOKAHEAD < stop) {
            int64_t fb = args[i + PLACE_LOOKAHEAD];
            PREFETCH_RW(&cands[fb * d]);
            PREFETCH_RW(&ball_bin[fb]);
        }
        int64_t ball = args[i], result;
        if (kinds[i] == 0) {
            const int64_t *cand = cands + ball * d;
            result = bin_of(
                cand, remap,
                decide_i64(loads, cand, remap, d, measures, us[ball],
                           strategy));
            loads[result] += 1;
            ball_bin[ball] = result;
            ins++;
        } else if (kinds[i] == 1) {
            loads[ball_bin[ball]] -= 1;
            ball_bin[ball] = -1;
            result = -1;
            dels++;
        } else {
            result = ball_bin[ball];
        }
        if (out)
            out[i] = result;
    }
    counts[0] += ins;
    counts[1] += dels;
}

/* First index at or after j whose position is >= x (pos ends in a +inf
 * sentinel).  Bucket occupancy averages at most one, so two branch-free
 * steps finish almost every probe and the loop's exit branch is
 * predictable — a plain loop mispredicts about once per lookup. */
static inline int64_t ring_probe(const double *pos, int64_t j, double x)
{
    j += pos[j] < x;
    j += pos[j] < x;
    while (pos[j] < x)
        j++;
    return j;
}

/* Kernel 3: bucket-table ring ownership lookup.  table caches
 * searchsorted(pos, bucket/nbuckets); pos_ext carries a +inf sentinel
 * at index n, so the probe loop needs no bound check and the only
 * possible overshoot (j == n) wraps to server 0.
 *
 * The loop is software-pipelined two stages deep: each point's table
 * entry is prefetched 2·LOOKAHEAD points ahead, read LOOKAHEAD points
 * ahead into a small ring buffer (which prefetches the pos_ext probe
 * start), and probed when its turn comes — both dependent random
 * accesses are then cache-warm.  The slot for point i+LOOKAHEAD is
 * i's own (same residue mod LOOKAHEAD), so i's entry is read out
 * before the refill overwrites it. */
void repro_ring_assign(const double *pts, int64_t q, const int32_t *table,
                       const double *pos_ext, int64_t nbuckets, int64_t n,
                       int64_t *out)
{
    int64_t j0buf[PLACE_LOOKAHEAD];
    int64_t i, head = q < PLACE_LOOKAHEAD ? q : PLACE_LOOKAHEAD;
    for (i = 0; i < head; i++) {
        int64_t j0 = (int64_t)table[(int64_t)(pts[i] * (double)nbuckets)];
        j0buf[i % PLACE_LOOKAHEAD] = j0;
        PREFETCH_RO(&pos_ext[j0]);
    }
    for (i = 0; i < q; i++) {
        double x = pts[i];
        int64_t j = j0buf[i % PLACE_LOOKAHEAD];
        if (i + PLACE_LOOKAHEAD < q) {
            int64_t j0;
            if (i + 2 * PLACE_LOOKAHEAD < q)
                PREFETCH_RO(&table[(int64_t)(
                    pts[i + 2 * PLACE_LOOKAHEAD] * (double)nbuckets)]);
            j0 = (int64_t)table[(int64_t)(
                pts[i + PLACE_LOOKAHEAD] * (double)nbuckets)];
            j0buf[(i + PLACE_LOOKAHEAD) % PLACE_LOOKAHEAD] = j0;
            PREFETCH_RO(&pos_ext[j0]);
        }
        j = ring_probe(pos_ext, j, x);
        out[i] = (j == n) ? 0 : j;
    }
}

/* ---------------- the thread runner (pthreads) ----------------
 *
 * Threads split trials only: repro_space_trials is the runner's one
 * user, and every other kernel runs on its caller's thread.  Trials are
 * partitioned STATICALLY into contiguous groups (earlier groups at most
 * one trial longer), so the schedule — and therefore the result — is a
 * pure function of (count, nthreads).  Trials never share loads or
 * generators, so every partition is bit-identical to the serial loop.
 * ctypes drops the GIL for the duration of the call. */

#if defined(__SIZEOF_INT128__) /* as repro_space_trials */
#define MAX_KERNEL_THREADS 64

/* Clamp a requested thread count to [1, min(count, MAX_KERNEL_THREADS)]. */
static int64_t clamp_threads(int64_t nthreads, int64_t count)
{
    if (nthreads > count)
        nthreads = count;
    if (nthreads > MAX_KERNEL_THREADS)
        nthreads = MAX_KERNEL_THREADS;
    return nthreads < 1 ? 1 : nthreads;
}

/* [*start, *stop) of group w when count trials are split nthreads ways. */
static void thread_range(int64_t count, int64_t nthreads, int64_t w,
                         int64_t *start, int64_t *stop)
{
    int64_t base = count / nthreads, extra = count % nthreads;
    *start = w * base + (w < extra ? w : extra);
    *stop = *start + base + (w < extra ? 1 : 0);
}

/* Where a worker thread starts.  Left alone, the scheduler often starts
 * a new thread on its creator's CPU and moves it only after tens of
 * milliseconds — as long as a whole kernel call — so both share one
 * core.  On Linux worker w therefore starts on the w-th allowed CPU
 * after the caller's and drops that pin as its first act: only the
 * starting point is chosen, the scheduler stays free afterwards. */
typedef struct {
    void *(*fn)(void *);
    void *job;
#if defined(__linux__)
    int pinned;
    cpu_set_t allowed;
#endif
} job_start;

static void *start_job(void *arg)
{
    job_start *s = (job_start *)arg;
#if defined(__linux__)
    if (s->pinned)
        pthread_setaffinity_np(pthread_self(), sizeof s->allowed, &s->allowed);
#endif
    return s->fn(s->job);
}

static void start_on_cpu(pthread_attr_t *attr, job_start *s, int64_t w)
{
#if defined(__linux__)
    cpu_set_t one;
    int64_t k;
    int ncpu, cpu = sched_getcpu();
    s->pinned = 0;
    if (cpu < 0 || sched_getaffinity(0, sizeof s->allowed, &s->allowed) != 0)
        return;
    ncpu = CPU_COUNT(&s->allowed);
    if (ncpu < 2 || !CPU_ISSET(cpu, &s->allowed))
        return;
    for (k = 0; k < w % ncpu; k++)
        do
            cpu = (cpu + 1) % CPU_SETSIZE;
        while (!CPU_ISSET(cpu, &s->allowed));
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    s->pinned = pthread_attr_setaffinity_np(attr, sizeof one, &one) == 0;
#else
    (void)attr;
    (void)s;
    (void)w;
#endif
}

/* Run fn on nthreads job structs of `size` bytes: jobs 1.. on new
 * threads (inline when a thread cannot be created), job 0 on the
 * calling thread. */
static void run_jobs(void *(*fn)(void *), char *jobs, size_t size,
                     int64_t nthreads)
{
    pthread_t tids[MAX_KERNEL_THREADS];
    job_start starts[MAX_KERNEL_THREADS];
    int spawned[MAX_KERNEL_THREADS];
    int64_t w;
    for (w = 1; w < nthreads; w++) {
        pthread_attr_t attr;
        starts[w].fn = fn;
        starts[w].job = jobs + w * size;
        pthread_attr_init(&attr);
        start_on_cpu(&attr, &starts[w], w);
        spawned[w] = pthread_create(&tids[w], &attr, start_job,
                                    &starts[w]) == 0;
        pthread_attr_destroy(&attr);
        if (!spawned[w])
            fn(jobs + w * size);
    }
    fn(jobs);
    for (w = 1; w < nthreads; w++)
        if (spawned[w])
            pthread_join(tids[w], 0);
}
#endif /* __SIZEOF_INT128__ */

/* Kernel 4: bucket table of a ring in one pass over its sorted
 * positions.  pos_ext holds the n sorted positions and the +inf
 * sentinel; table (nbuckets + 1 entries, zeroed by the caller) becomes
 * table[b] = number of positions whose bucket floor(pos * nbuckets) is
 * below b — numpy's bincount + cumsum, as a branch-free count then a
 * prefix sum whose running total stays in a register (summing in the
 * table would wait on each store).  Returns 0 when two positions are
 * equal (the ring rejects duplicates), else 1. */
int64_t repro_ring_table(const double *pos_ext, int64_t n, int64_t nbuckets,
                         int32_t *table)
{
    int64_t i, b, equal = 0;
    int32_t total = 0;
    for (i = 0; i < n; i++) {
        table[(int64_t)(pos_ext[i] * (double)nbuckets) + 1] += 1;
        equal |= i > 0 && pos_ext[i] == pos_ext[i - 1];
    }
    for (b = 1; b <= nbuckets; b++)
        table[b] = total += table[b];
    return !equal;
}

/* ---------------- numpy's PCG64 and the ring build ----------------
 *
 * A copy of numpy's PCG64 bit generator (O'Neill, "PCG: A Family of
 * Simple Fast Space-Efficient Statistically Good Algorithms for Random
 * Number Generation", 2014): a 128-bit LCG whose XSL-RR output is taken
 * after each step, and doubles formed as (x >> 11) * 2^-53 exactly like
 * numpy's next_double.  A trial seeded from bit_generator.state
 * therefore draws the very stream Generator.random would, and writing
 * the final state back leaves the generator where numpy would have.
 * Needs a compiler with 128-bit integers; elsewhere these symbols are
 * absent and the Python side keeps the generic path. */

#if defined(__SIZEOF_INT128__)

typedef unsigned __int128 pcg128;

#define PCG_MULT \
    (((pcg128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

typedef struct {
    pcg128 state, inc;
} pcg64;

static inline uint64_t pcg64_next(pcg64 *g)
{
    uint64_t x;
    unsigned rot;
    g->state = g->state * PCG_MULT + g->inc;
    x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* numpy's next_double; the shifted value fits in 53 bits, so the signed
 * conversion is exact. */
static inline double pcg64_double(pcg64 *g)
{
    return (double)(int64_t)(pcg64_next(g) >> 11) *
           (1.0 / 9007199254740992.0);
}

/* The affine map state -> mult * state + plus that jumps `delta` draws,
 * built in O(log delta) steps (Brown, "Random Number Generation with
 * Arbitrary Strides", 1994) — what numpy's advance computes. */
typedef struct {
    pcg128 mult, plus;
} pcg64_jump;

static pcg64_jump pcg64_jump_of(pcg128 inc, pcg128 delta)
{
    pcg64_jump acc = {1, 0};
    pcg128 mult = PCG_MULT, plus = inc;
    while (delta > 0) {
        if (delta & 1) {
            acc.mult *= mult;
            acc.plus = acc.plus * mult + plus;
        }
        plus = (mult + 1) * plus;
        mult *= mult;
        delta >>= 1;
    }
    return acc;
}

static void pcg64_advance(pcg64 *g, pcg128 delta)
{
    pcg64_jump j = pcg64_jump_of(g->inc, delta);
    g->state = j.mult * g->state + j.plus;
}

/* Lanes of pcg64_fill.  Each LCG step waits on the previous step's
 * 128-bit multiply; lanes a quarter of the draws apart are independent
 * chains the core runs side by side. */
#define PCG_LANES 4

/* Draw the next `count` doubles of g into out, in stream order. */
static void pcg64_fill(pcg64 *g, int64_t count, double *out)
{
    int64_t len = count / PCG_LANES, i, c;
    pcg64 lane[PCG_LANES];
    pcg64_jump jump = pcg64_jump_of(g->inc, (pcg128)len);
    lane[0] = *g;
    for (c = 1; c < PCG_LANES; c++) {
        lane[c] = lane[c - 1];
        lane[c].state = jump.mult * lane[c].state + jump.plus;
    }
    for (i = 0; i < len; i++)
        for (c = 0; c < PCG_LANES; c++)
            out[c * len + i] = pcg64_double(&lane[c]);
    for (i = PCG_LANES * len; i < count; i++)
        out[i] = pcg64_double(&lane[PCG_LANES - 1]);
    *g = lane[PCG_LANES - 1];
}

/* Generator words: s[0..1] state high/low, s[2..3] inc high/low. */
static pcg64 pcg64_load(const uint64_t *s)
{
    pcg64 g;
    g.state = ((pcg128)s[0] << 64) | s[1];
    g.inc = ((pcg128)s[2] << 64) | s[3];
    return g;
}

static void pcg64_store(const pcg64 *g, uint64_t *s)
{
    s[0] = (uint64_t)(g->state >> 64);
    s[1] = (uint64_t)g->state;
}

/* Draw `count` doubles into out, updating the state words. */
void repro_pcg64_fill(uint64_t *s, int64_t count, double *out)
{
    pcg64 g = pcg64_load(s);
    pcg64_fill(&g, count, out);
    pcg64_store(&g, s);
}

/* Jump the state words ahead by delta_hi * 2^64 + delta_lo draws. */
void repro_pcg64_advance(uint64_t *s, uint64_t delta_hi, uint64_t delta_lo)
{
    pcg64 g = pcg64_load(s);
    pcg64_advance(&g, ((pcg128)delta_hi << 64) | delta_lo);
    pcg64_store(&g, s);
}

/* A bucket holding more than this many positions stops the in-kernel
 * ring build: its insertion pass then stays linear.  Uniform positions
 * crowd a bucket this much only with negligible probability. */
#define RING_MAX_BUCKET 64

/* The compact bucket index in-kernel trials look rings up in: bucket b's
 * first position (RingSpace's table[b]) is start[b >> RING_GROUP_BITS] +
 * off[b], an int32 per group of RING_GROUP buckets and a byte per bucket.
 * That is 1.06 bytes per bucket against the table's 4, so at 2^20
 * buckets the index fits a 2 MB L2.  A group whose first RING_GROUP - 1
 * buckets hold more than UINT8_MAX positions does not fit (a wrapped
 * offset would start probes early: the limit bounds the probe, not its
 * answer); uniform rings peak near 100.  Offsets are never negative, so
 * the OR of a group's offsets passes a byte exactly when one of them
 * does. */
#define RING_GROUP_BITS 6
#define RING_GROUP (1 << RING_GROUP_BITS)

typedef struct {
    int32_t *start; /* (nbuckets >> RING_GROUP_BITS) + 1 group starts */
    uint8_t *off;   /* nbuckets + 1 offsets from the group's start */
} ring_index;

static inline uint64_t ring_bits(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

/* Sort n positions that already lie in their buckets' ranges, in one
 * insertion pass.  Positions are never negative, so their bit patterns
 * order like their values, and the first step of each insertion —
 * against the largest position so far — is a branch-free integer
 * min/max: as a compare-and-branch it mispredicts for about one
 * position in four.  Only a position that belongs two or more places
 * back takes the loop. */
static void ring_insertion(double *pos, int64_t n)
{
    int64_t i, j;
    uint64_t top = n > 0 ? ring_bits(pos[0]) : 0, x, lo;
    for (i = 1; i < n; i++) {
        x = ring_bits(pos[i]);
        lo = x < top ? x : top;
        top = x < top ? top : x;
        memcpy(&pos[i - 1], &lo, sizeof lo);
        memcpy(&pos[i], &top, sizeof top);
        if (i >= 2 && ring_bits(pos[i - 2]) > lo) {
            for (j = i - 1; j > 0 && ring_bits(pos[j - 1]) > lo; j--)
                pos[j] = pos[j - 1];
            memcpy(&pos[j], &lo, sizeof lo);
        }
    }
}

/* Positions the ring build draws at a time: it reads the stream twice
 * through a buffer this small instead of keeping all n positions. */
#define RING_DRAW_CHUNK 4096

/* The ring RingSpace.random(n) would draw from g, built in scratch.
 * The positions are g's next n doubles, drawn twice, RING_DRAW_CHUNK at
 * a time into x (at least min(n, RING_DRAW_CHUNK) doubles); pcg64_fill
 * yields one stream however it is cut.  A counting sort scatters them
 * into the power-of-two buckets: the first pass counts them into the
 * bytes of count (nbuckets + 1 entries; a count saturates at UINT8_MAX,
 * far past RING_MAX_BUCKET), a prefix sum turns each count into its
 * bucket's first position — numpy's bincount + cumsum — and enters it
 * into the index ix, a rewound copy of g draws them again, and the
 * scatter fills each bucket from its end, counting count[b] back down to
 * 0.  Both passes are pipelined like ring_assign: past L2 the count, the
 * offset and the slot are misses, so each is warmed ahead (the slot
 * warmed is its bucket's first; it only aims the prefetch).  Buckets are
 * ordered, so ring_insertion sorts each in place; distinct doubles have
 * one sorted order, so pos_ext equals np.sort's, with the +inf sentinel
 * at n.  When measures is not NULL it receives the arc lengths in
 * region_measures' operation order (x may be measures).  Returns 1, or 0
 * when two positions are equal, a bucket holds more than
 * RING_MAX_BUCKET of them or a group's offsets pass a byte; g has drawn
 * the n positions either way. */
static int ring_build(pcg64 *g, int64_t n, int64_t nbuckets, double *x,
                      double *pos_ext, uint8_t *count, ring_index ix,
                      double *measures)
{
    int64_t i, b, b0, b1, c, len;
    int32_t total = 0, base = 0;
    uint8_t peak = 0, *slot;
    uint32_t spread = 0;
    double nb = (double)nbuckets;
    pcg64 again = *g;
    memset(count, 0, (size_t)(nbuckets + 1));
    for (c = 0; c < n; c += len) {
        len = n - c < RING_DRAW_CHUNK ? n - c : RING_DRAW_CHUNK;
        pcg64_fill(g, len, x);
        for (i = 0; i < len; i++) {
            if (i + PLACE_LOOKAHEAD < len)
                PREFETCH_RW(&count[(int64_t)(x[i + PLACE_LOOKAHEAD] * nb)]);
            slot = &count[(int64_t)(x[i] * nb)];
            *slot += *slot < UINT8_MAX;
        }
    }
    /* the prefix sum, group by group, through the empty bucket nbuckets
     * (a partitioned candidate that rounds up to 1 looks there); its
     * running total stays in a register, where summing in the array
     * would wait on each store */
    for (b0 = 0; b0 <= nbuckets; b0 += RING_GROUP) {
        b1 = b0 + RING_GROUP <= nbuckets ? b0 + RING_GROUP : nbuckets + 1;
        ix.start[b0 >> RING_GROUP_BITS] = base = total;
        for (b = b0; b < b1; b++) {
            peak = count[b] > peak ? count[b] : peak;
            ix.off[b] = (uint8_t)(total - base);
            spread |= (uint32_t)(total - base);
            total += count[b];
        }
    }
    if (peak > RING_MAX_BUCKET || spread > UINT8_MAX)
        return 0;
    for (c = 0; c < n; c += len) {
        len = n - c < RING_DRAW_CHUNK ? n - c : RING_DRAW_CHUNK;
        pcg64_fill(&again, len, x);
        for (i = 0; i < len; i++) {
            if (i + 2 * PLACE_LOOKAHEAD < len) {
                b = (int64_t)(x[i + 2 * PLACE_LOOKAHEAD] * nb);
                PREFETCH_RW(&count[b]);
                PREFETCH_RO(&ix.off[b]);
            }
            if (i + PLACE_LOOKAHEAD < len) {
                b = (int64_t)(x[i + PLACE_LOOKAHEAD] * nb);
                PREFETCH_RW(
                    &pos_ext[ix.start[b >> RING_GROUP_BITS] + ix.off[b]]);
            }
            b = (int64_t)(x[i] * nb);
            pos_ext[ix.start[b >> RING_GROUP_BITS] + ix.off[b] + --count[b]] =
                x[i];
        }
    }
    ring_insertion(pos_ext, n);
    for (i = 1; i < n; i++)
        if (pos_ext[i] == pos_ext[i - 1])
            return 0;
    pos_ext[n] = HUGE_VAL;
    if (measures) {
        for (i = 1; i < n; i++)
            measures[i] = pos_ext[i] - pos_ext[i - 1];
        measures[0] = n == 1 ? 1.0 : 1.0 - pos_ext[n - 1] + pos_ext[0];
    }
    return 1;
}

/* The build alone, on state words s (updated past the n draws): fills
 * pos_ext (n + 1), the index's start ((nbuckets >> RING_GROUP_BITS) + 1)
 * and off (nbuckets + 1), measures (n) and table (nbuckets + 1): first
 * the build's byte counts, then RingSpace's table read back from the
 * index.  Returns ring_build's answer.  Only the tests call it. */
int64_t repro_ring_build(uint64_t *s, int64_t n, int64_t nbuckets,
                         double *pos_ext, int32_t *table, int32_t *start,
                         uint8_t *off, double *measures)
{
    pcg64 g = pcg64_load(s);
    ring_index ix = {start, off};
    int64_t b;
    int built = ring_build(&g, n, nbuckets, measures, pos_ext,
                           (uint8_t *)table, ix, measures);
    for (b = 0; b <= nbuckets; b++)
        table[b] = start[b >> RING_GROUP_BITS] + off[b];
    pcg64_store(&g, s);
    return built;
}

/* load_hist_u8 alone: h (LOAD_LEVELS) becomes the histogram of the n
 * byte loads.  Only the tests call it. */
void repro_load_hist_u8(const uint8_t *loads, int64_t n, int64_t *h)
{
    load_hist_u8(loads, n, h);
}

/* Enter a prebuilt ring's int32 bucket table into ix.  Returns 1, or 0
 * when a group's offsets pass a byte. */
static int ring_compact(const int32_t *table, int64_t nbuckets,
                        ring_index ix)
{
    int64_t b, b0, b1;
    int32_t base;
    uint32_t spread = 0;
    for (b0 = 0; b0 <= nbuckets; b0 += RING_GROUP) {
        b1 = b0 + RING_GROUP <= nbuckets ? b0 + RING_GROUP : nbuckets + 1;
        ix.start[b0 >> RING_GROUP_BITS] = base = table[b0];
        for (b = b0; b < b1; b++) {
            ix.off[b] = (uint8_t)(table[b] - base);
            spread |= (uint32_t)(table[b] - base);
        }
    }
    return spread <= UINT8_MAX;
}

#endif /* __SIZEOF_INT128__ */

/* ---------------- the 2-D torus: a periodic uniform grid ----------------
 *
 * [0,1)^2 is cut into side x side cells, side a power of two, so x*side
 * is exact and its truncation is the cell column.  The index keeps the
 * points cell by cell in row-major order: cell c holds sorted positions
 * start[c] .. start[c+1] - 1, xy their coordinates and ids their
 * original indices (ascending within a cell).  Neighbouring cells of a
 * row are therefore one contiguous run of points. */

struct torus_index {
    const int32_t *start; /* side*side + 1 cell offsets */
    const double *xy;     /* cell-sorted coordinates, x then y */
    const int32_t *ids;   /* original index of each cell-sorted point */
};

/* x mod side, for a power-of-two side and any integer x. */
static inline int64_t torus_wrap(int64_t x, int64_t side)
{
    return (int64_t)((uint64_t)x & (uint64_t)(side - 1));
}

static inline int64_t torus_cell(const double *p, int64_t side)
{
    return (int64_t)(p[1] * (double)side) * side +
           (int64_t)(p[0] * (double)side);
}

/* Squared periodic distance in cKDTree's arithmetic (boxsize 1): a
 * difference beyond +-0.5 is wrapped by -+1 (exactly, by Sterbenz),
 * then r = dx*dx; r += dy*dy.  With wrap == 0 the caller knows both
 * differences lie within +-0.5, where the wrap never fires. */
static inline double torus_d2(double qx, double qy, const double *p,
                              int wrap)
{
    double dx = qx - p[0], dy = qy - p[1], r;
    if (wrap) {
        if (dx < -0.5)
            dx = 1.0 + dx;
        else if (dx > 0.5)
            dx = dx - 1.0;
        if (dy < -0.5)
            dy = 1.0 + dy;
        else if (dy > 0.5)
            dy = dy - 1.0;
    }
    r = dx * dx;
    r += dy * dy;
    return r;
}

/* Take sorted point j when it is nearer than the point at sorted position
 * *bj (squared distance *best), or as near with a lower index.  Squared
 * distances are never negative or NaN, so their bit patterns order like
 * their values, and the common update is a compare-and-select, which
 * compiles to conditional moves (a compare-and-branch mispredicts about
 * half the time); exact ties are rare enough for a branch. */
static inline void torus_visit(const torus_index *g, int64_t j, double qx,
                               double qy, int wrap, uint64_t *best,
                               int64_t *bj)
{
    double r = torus_d2(qx, qy, g->xy + 2 * j, wrap);
    uint64_t rb;
    memcpy(&rb, &r, sizeof rb);
    if (rb == *best) {
        if (g->ids[j] < g->ids[*bj])
            *bj = j;
        return;
    }
    *bj = rb < *best ? j : *bj;
    *best = rb < *best ? rb : *best;
}

/* Visit sorted points j0 .. j1 - 1. */
static inline void torus_scan(const torus_index *g, int64_t j0, int64_t j1,
                              double qx, double qy, int wrap,
                              uint64_t *best, int64_t *bj)
{
    uint64_t b = *best;
    int64_t k = *bj, j;
    for (j = j0; j < j1; j++)
        torus_visit(g, j, qx, qy, wrap, &b, &k);
    *best = b;
    *bj = k;
}

/* Scan cells x0..x1 of row y (any integers, x0 <= x1, taken mod side). */
static inline void torus_run(const torus_index *g, int64_t side, int64_t y,
                             int64_t x0, int64_t x1, double qx, double qy,
                             uint64_t *best, int64_t *bj)
{
    const int32_t *row = g->start + torus_wrap(y, side) * side;
    if (x1 - x0 + 1 >= side) {
        torus_scan(g, row[0], row[side], qx, qy, 1, best, bj);
        return;
    }
    x0 = torus_wrap(x0, side);
    x1 = torus_wrap(x1, side);
    if (x0 > x1) { /* the run crosses the seam */
        torus_scan(g, row[x0], row[side], qx, qy, 1, best, bj);
        x0 = 0;
    }
    torus_scan(g, row[x0], row[x1 + 1], qx, qy, 1, best, bj);
}

/* Below the computed squared distance of every point outside the block
 * of cells within Chebyshev radius r >= 1 of the query's cell: such a
 * point lies at least (r + edge)/side away along one axis, edge being
 * the query's least offset min(fx, 1 - fx, fy, 1 - fy) from its own
 * cell's sides, in cells.  The 2^-50 and 2^-40 margins exceed the
 * rounding of the difference, of its square and of this bound, so
 * stopping once best < bound never misses a nearer or tied point. */
static inline uint64_t torus_bound(int64_t r, double edge, int64_t side)
{
    double t = ((double)r + edge) / (double)side - 0x1p-50;
    uint64_t bits;
    t = t * t * (1.0 - 0x1p-40);
    memcpy(&bits, &t, sizeof bits);
    return bits;
}

/* Sorted position of the point nearest to (qx, qy) in [0, 1]^2, the
 * lowest index on exact ties: the 3 x 3 block of cells around the query
 * as three row runs, then ring after ring until the bound, from the
 * query's own offsets in its cell (fx and fy are exact: x*side is, and
 * so is its fraction), rules out every cell left.  Most queries stop
 * after the block.  A block clear of the seam on a grid of side >= 8
 * spans under 0.5 on both axes, so its distances need no wrap, and its
 * runs are visited in one loop, whose exit mispredicts once rather than
 * three times: step k jumps the gaps before runs 1 and 2 once it has
 * passed runs 0 and 1. */
static int64_t torus_nearest(const torus_index *g, int64_t side, double qx,
                             double qy)
{
    int64_t cx, cy, r = 1, y, bj = -1; /* bj: sorted position of the best */
    uint64_t best = UINT64_MAX; /* above every distance's bits */
    double fx, fy, edge;
    /* like cKDTree, wrap the query into [0, 1) first: a partitioned
     * coordinate (u + c) / d can round up to exactly 1 */
    if (qx >= 1.0)
        qx -= 1.0;
    if (qy >= 1.0)
        qy -= 1.0;
    cx = (int64_t)(qx * (double)side);
    cy = (int64_t)(qy * (double)side);
    fx = qx * (double)side - (double)cx;
    fy = qy * (double)side - (double)cy;
    fx = fx < 1.0 - fx ? fx : 1.0 - fx;
    fy = fy < 1.0 - fy ? fy : 1.0 - fy;
    edge = fx < fy ? fx : fy;
    if (side >= 8 && cx >= 1 && cx <= side - 2 && cy >= 1 && cy <= side - 2) {
        const int32_t *run = g->start + (cy - 1) * side + cx - 1;
        int64_t j0 = run[0], gap1 = run[side] - run[3];
        int64_t gap2 = run[2 * side] - run[side + 3];
        int64_t end0 = run[3] - j0, end1 = end0 + run[side + 3] - run[side];
        int64_t k, count = end1 + run[2 * side + 3] - run[2 * side];
        uint64_t b = best;
        int64_t bk = bj;
        for (k = 0; k < count; k++)
            torus_visit(g, j0 + k + (k >= end0) * gap1 + (k >= end1) * gap2,
                        qx, qy, 0, &b, &bk);
        best = b;
        bj = bk;
    } else {
        for (y = cy - 1; y <= cy + 1; y++)
            torus_run(g, side, y, cx - 1, cx + 1, qx, qy, &best, &bj);
    }
    while (2 * r + 1 < side && !(best < torus_bound(r, edge, side))) {
        r++;
        torus_run(g, side, cy - r, cx - r, cx + r, qx, qy, &best, &bj);
        torus_run(g, side, cy + r, cx - r, cx + r, qx, qy, &best, &bj);
        for (y = cy - r + 1; y < cy + r; y++) {
            torus_run(g, side, y, cx - r, cx - r, qx, qy, &best, &bj);
            torus_run(g, side, y, cx + r, cx + r, qx, qy, &best, &bj);
        }
    }
    return bj;
}

/* Kernel 6: nearest point of a torus grid for q query points (x, y). */
void repro_torus_assign(const double *pts, int64_t q, const int32_t *start,
                        const double *xy, const int32_t *ids, int64_t side,
                        int64_t *out)
{
    torus_index g = {start, xy, ids};
    int64_t i;
    for (i = 0; i < q; i++)
        out[i] = ids[torus_nearest(&g, side, pts[2 * i], pts[2 * i + 1])];
}

/* A grid is built only when no cell holds more than TORUS_MAX_CELL
 * points and every aligned TORUS_BLOCK x TORUS_BLOCK block of cells
 * holds one: then every query has a point within 8 cells, so a search
 * stops by ring 12, and the distinctness check stays linear.  Random
 * uniform points pass except with negligible probability. */
#define TORUS_MAX_CELL 64
#define TORUS_BLOCK 8

/* Kernel 7: the grid of n points (x, y) in one counting sort.  start
 * (side*side + 1 entries) must be zeroed by the caller.  Returns 1, 0
 * when two points are at computed squared distance 0 (cKDTree's k=2
 * check would find them; only points of one cell can be), or -1 when
 * the points are too unevenly spread for a grid (nothing is checked). */
int64_t repro_torus_grid(const double *pts, int64_t n, int64_t side,
                         int32_t *start, double *xy, int32_t *ids)
{
    int64_t i, j, c, x, y, cells = side * side;
    int64_t b = side < TORUS_BLOCK ? side : TORUS_BLOCK;
    int32_t total = 0; /* the prefix sum's, kept in a register */
    for (i = 0; i < n; i++)
        start[torus_cell(pts + 2 * i, side) + 1] += 1;
    for (c = 0; c < cells; c++) {
        if (start[c + 1] > TORUS_MAX_CELL)
            return -1;
        start[c + 1] = total += start[c + 1];
    }
    for (y = 0; y < side; y += b)
        for (x = 0; x < side; x += b) {
            int64_t count = 0;
            for (c = y; c < y + b; c++)
                count += start[c * side + x + b] - start[c * side + x];
            if (count == 0)
                return -1;
        }
    /* stable scatter: start[c] walks to the end of cell c, then the
     * offsets shift back by one cell */
    for (i = 0; i < n; i++) {
        j = start[torus_cell(pts + 2 * i, side)]++;
        xy[2 * j] = pts[2 * i];
        xy[2 * j + 1] = pts[2 * i + 1];
        ids[j] = (int32_t)i;
    }
    memmove(start + 1, start, sizeof(int32_t) * (size_t)cells);
    start[0] = 0;
    for (c = 0; c < cells; c++)
        if (start[c + 1] - start[c] > 1) /* most cells hold one point */
            for (i = start[c]; i < start[c + 1]; i++)
                for (j = i + 1; j < start[c + 1]; j++)
                    if (torus_d2(xy[2 * i], xy[2 * i + 1], xy + 2 * j, 1) ==
                        0.0)
                        return 0;
    return 1;
}

/* ---------------- fused trials on rings and 2-D tori ----------------
 *
 * Whole trials, draw -> lookup -> place for every ball, fed by the C
 * PCG64 above; like it they need 128-bit integers. */

#if defined(__SIZEOF_INT128__)

/* Balls per stage of a trial: a stage's candidate lines (a few
 * hundred) stay cache-resident from the stage that warms them to the
 * stage that reads them. */
#define RING_STAGE 256

/* A contiguous range [k0, k1) of the fused trials. */
typedef struct {
    uint64_t *states;              /* (t, 4) generator words, rewritten */
    const int32_t *const *tables;  /* per trial nbuckets + 1, or NULL */
    const double *const *pos_ext;  /* per trial: n positions + inf */
    const double *const *measures; /* per trial arc lengths, or NULL */
    int64_t *loads;                /* (t, n) rows, or NULL */
    int64_t *heights;              /* (t, m) or NULL */
    int64_t *hist;                 /* (t, LOAD_LEVELS) histograms, or NULL */
    int64_t k0, k1, n, m, d, nbuckets, rng_block, partitioned, strategy;
    int64_t torus;  /* 1: 2-D tori on grids of side nbuckets, not rings */
    int64_t status; /* 0; 1: space not built or compacted, or a bin would
                       pass UINT8_MAX; -1: no memory */
} space_trials_job;

/* What a trial places into: a ring (bucket index, sorted positions plus
 * the +inf sentinel) or a torus grid, and the measures or NULL. */
typedef struct {
    ring_index ring;
    const double *pos;
    torus_index grid;
    const double *measures;
} trial_space;

/* Owners of the q ring positions x into bins, in three passes — bucket
 * offset, probe start, probe — each warming the lines the next reads;
 * the last warms the owners' load bytes for placement.  The group
 * starts are a 64th of the offsets' entries and stay cached. */
static void ring_lookup(const space_trials_job *job, const trial_space *sp,
                        const double *x, int64_t q, int64_t *bins,
                        const uint8_t *loads)
{
    const int32_t *start = sp->ring.start;
    const uint8_t *off = sp->ring.off;
    const double *pos = sp->pos;
    int64_t i, b, n = job->n;
    double nb = (double)job->nbuckets;
    for (i = 0; i < q; i++)
        PREFETCH_RO(&off[(int64_t)(x[i] * nb)]);
    for (i = 0; i < q; i++) {
        b = (int64_t)(x[i] * nb);
        bins[i] = start[b >> RING_GROUP_BITS] + off[b];
        PREFETCH_RO(&pos[bins[i]]);
    }
    for (i = 0; i < q; i++) {
        int64_t j = ring_probe(pos, bins[i], x[i]);
        bins[i] = j == n ? 0 : j;
        PREFETCH_RW(loads + bins[i]);
    }
}

/* One trial from generator g on space sp into loads, block by block in
 * choice_blocks' layout: an RNG block of b balls is b*d candidate
 * points of dim draws each (a ring position; a torus point's x then y)
 * followed by b tie-break draws.  Two cursors walk it without
 * materialising it — candidates from the block's first draw,
 * tie-breaks from b*d*dim draws later (jump-ahead) — and each stage of
 * RING_STAGE balls runs draw -> lookup -> place; on a torus, lookup and
 * place are one loop (place_torus), which skips the lookups a ball's
 * choice does not need.  Partitioned, the first coordinate x of
 * candidate c becomes (x + c) / d.  The loads are n bytes, indexed by
 * server on a ring and by grid position on a torus.  Returns 1, or 0
 * as soon as a ball chooses a bin whose byte already holds UINT8_MAX;
 * g and the loads are then partly advanced. */
static int space_trial(const space_trials_job *job, int64_t k, pcg64 *g,
                       const trial_space *sp, uint8_t *loads, double *x,
                       int64_t *bins, double *us)
{
    int64_t *heights = job->heights ? job->heights + k * job->m : 0;
    int64_t d = job->d, dim = job->torus ? 2 : 1, ball = 0;
    int needs_u = job->strategy == 0 && d > 1;
    while (ball < job->m) {
        int64_t b = job->m - ball < job->rng_block ? job->m - ball
                                                   : job->rng_block;
        int64_t s0;
        pcg64 cand = *g, tie = *g;
        if (needs_u)
            pcg64_advance(&tie, (pcg128)b * (pcg128)(d * dim));
        for (s0 = 0; s0 < b; s0 += RING_STAGE) {
            int64_t w = b - s0 < RING_STAGE ? b - s0 : RING_STAGE;
            int64_t q = w * d, i, c, placed;
            int64_t *h = heights ? heights + ball + s0 : 0;
            pcg64_fill(&cand, q * dim, x);
            if (needs_u)
                pcg64_fill(&tie, w, us);
            if (job->partitioned)
                for (i = 0; i < w; i++)
                    for (c = 0; c < d; c++)
                        x[(i * d + c) * dim] =
                            (x[(i * d + c) * dim] + (double)c) / (double)d;
            if (job->torus) {
                placed = place_torus(&sp->grid, job->nbuckets, x, us, w, d,
                                     loads, job->strategy, h, bins);
            } else {
                ring_lookup(job, sp, x, q, bins, loads);
                placed = place_block_u8(bins, us, w, d, loads, sp->measures,
                                        job->strategy, h);
            }
            if (placed < w)
                return 0;
        }
        pcg64_advance(g, (pcg128)b * (pcg128)(d * dim + 1));
        ball += b;
    }
    return 1;
}

/* The torus TorusSpace.random(n) would draw from g, built in scratch:
 * g's next 2n doubles as n (x, y) points (into raw), gridded by
 * repro_torus_grid (start has side*side + 1 entries).  Returns 1, or 0
 * when two points coincide or the points are too unevenly spread for a
 * grid; g has drawn the points either way. */
static int torus_build(pcg64 *g, int64_t n, int64_t side, double *raw,
                       int32_t *start, double *xy, int32_t *ids)
{
    pcg64_fill(g, 2 * n, raw);
    memset(start, 0, sizeof(int32_t) * (size_t)(side * side + 1));
    return repro_torus_grid(raw, n, side, start, xy, ids) == 1;
}

/* Scratch of `size` bytes for a space the kernel builds.  It is read at
 * random, so on Linux large scratch asks for transparent huge pages, as
 * numpy does for its own large arrays (RingSpace's): with 4 KB pages a
 * 2^24-server ring faults 80,000 pages in and its lookups miss the TLB.
 * The request is only a hint. */
static void *ring_scratch(size_t size)
{
    void *p = malloc(size);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (p && size >= ((size_t)1 << 22)) {
        uintptr_t start = ((uintptr_t)p + 4095) & ~(uintptr_t)4095;
        madvise((void *)start, (uintptr_t)p + size - start, MADV_HUGEPAGE);
    }
#endif
    return p;
}

/* A worker's trials.  Each places into one byte per server, scratch the
 * worker zeroes before every trial; its histogram goes to its hist row
 * and, when the caller keeps loads, they are widened into the trial's
 * int64 row.
 * A ring trial looks its candidates up in the worker's bucket index:
 * given tables, each trial's is compacted into it (ring_compact).
 * Without tables each trial first builds its space from its own
 * generator in scratch the worker reuses: a ring (ring_build, drawing
 * through x and counting in the load scratch, both before the trial's
 * stages need them; the smaller/larger strategies, codes 2 and 3, also
 * get its arc lengths) or a torus grid (torus_build; raw holds the
 * points, pos_ext their grid order and cells the cell offsets).  A
 * torus's raw is dead once it is gridded, so it is the load scratch,
 * counted by grid position and scattered to the caller's row through
 * ids; rings keep theirs in a buffer of its own, of max(n, nbuckets + 1)
 * bytes for the build's counts.  A space that is not built, a table
 * that does not compact or a ball that chooses a bin already holding
 * UINT8_MAX stops the worker (status 1), and the caller runs the cell
 * on its generic route (see repro_space_trials). */
static void *space_trials_worker(void *arg)
{
    space_trials_job *job = (space_trials_job *)arg;
    int64_t n = job->n, nb = job->nbuckets, k, i;
    int64_t dim = job->torus ? 2 : 1;
    int build = job->tables == 0, ring = !job->torus;
    int needs_arcs = build && ring && job->strategy >= 2;
    int64_t xlen = RING_STAGE * job->d * dim; /* x also takes ring draws */
    int64_t own_len = build && nb >= n ? nb + 1 : n;
    double *x = malloc(sizeof(double) *
                       (xlen > RING_DRAW_CHUNK ? xlen : RING_DRAW_CHUNK));
    int64_t *bins = malloc(sizeof(int64_t) * RING_STAGE * job->d);
    /* zeroed: strategies that ignore tie-breaks never draw them */
    double *us = calloc(RING_STAGE, sizeof(double));
    double *raw = ring ? 0 : ring_scratch(sizeof(double) * n * dim);
    double *pos_ext =
        build ? ring_scratch(sizeof(double) * (n * dim + 1)) : 0;
    int32_t *cells =
        ring ? 0 : ring_scratch(sizeof(int32_t) * (nb * nb + 1));
    int32_t *ids = ring ? 0 : ring_scratch(sizeof(int32_t) * n);
    double *arcs = needs_arcs ? ring_scratch(sizeof(double) * n) : 0;
    uint8_t *own = ring ? ring_scratch((size_t)own_len) : 0;
    ring_index ix = {
        ring ? ring_scratch(sizeof(int32_t) * ((nb >> RING_GROUP_BITS) + 1))
             : 0,
        ring ? ring_scratch((size_t)nb + 1) : 0};
    uint8_t *scratch = ring ? own : (uint8_t *)raw;
    trial_space sp = {ix, pos_ext, {cells, pos_ext, ids}, arcs};
    if (!x || !bins || !us || !scratch || (build && !pos_ext) ||
        (ring && (!ix.start || !ix.off)) || (!ring && (!cells || !ids)) ||
        (needs_arcs && !arcs)) {
        job->status = -1;
    } else {
        for (k = job->k0; k < job->k1; k++) {
            pcg64 g = pcg64_load(job->states + 4 * k);
            int built;
            if (!build) {
                built = ring_compact(job->tables[k], nb, ix);
                sp.pos = job->pos_ext[k];
                sp.measures = job->measures ? job->measures[k] : 0;
            } else if (ring) {
                built = ring_build(&g, n, nb, x, pos_ext, own, ix, arcs);
            } else {
                built = torus_build(&g, n, nb, raw, cells, pos_ext, ids);
            }
            if (!built) {
                job->status = 1;
                break;
            }
            memset(scratch, 0, (size_t)n);
            if (!space_trial(job, k, &g, &sp, scratch, x, bins, us)) {
                job->status = 1;
                break;
            }
            if (job->hist)
                load_hist_u8(scratch, n, job->hist + k * LOAD_LEVELS);
            if (job->loads)
                for (i = 0; i < n; i++)
                    job->loads[k * n + (ring ? i : ids[i])] = scratch[i];
            pcg64_store(&g, job->states + 4 * k);
        }
    }
    free(x);
    free(bins);
    free(us);
    free(own);
    free(arcs);
    free(raw);
    free(pos_ext);
    free(cells);
    free(ids);
    free(ix.start);
    free(ix.off);
    return 0;
}

/* Kernel 5: t complete trials (draw -> lookup -> place for every ball),
 * trials partitioned across nthreads OS threads.  On rings, given
 * tables, or with tables == NULL each trial first builds its ring from
 * its generator (ring_build; pos_ext and measures are then ignored).
 * With torus set each trial builds a 2-D torus on a grid of side
 * nbuckets (torus_build; tables and measures must be NULL, strategy
 * random or first).  Servers are indexed by int32, so n must be below
 * 2^31.  Trials place into a byte per server.  Trial k's loads go to
 * row k of loads unless loads is NULL (tables must then be NULL); hist,
 * unless NULL, holds a row of LOAD_LEVELS counts per trial, and row k
 * gets trial k's load histogram.  Returns 0; 1 when some space was not
 * built, some given table does not fit the bucket index or some ball
 * chose a bin already holding UINT8_MAX balls; -1 when scratch memory
 * could not be allocated.  Unless it returns 0 the state words are
 * partly advanced and must be discarded.  A bin past a byte is the
 * heavily loaded regime (m >> n), which no paper cell reaches (Table 1's
 * largest maximum is 35); the caller's generic route runs those cells
 * faster than a rerun into wider loads would. */
int64_t repro_space_trials(uint64_t *states, const int32_t *const *tables,
                           const double *const *pos_ext,
                           const double *const *measures, int64_t t,
                           int64_t n, int64_t m, int64_t d, int64_t nbuckets,
                           int64_t rng_block, int64_t partitioned,
                           int64_t strategy, int64_t torus, int64_t *loads,
                           int64_t *heights, int64_t *hist, int64_t nthreads)
{
    space_trials_job jobs[MAX_KERNEL_THREADS];
    int64_t w, start, stop, status = 0;
    nthreads = clamp_threads(nthreads, t);
    for (w = 0; w < nthreads; w++) {
        thread_range(t, nthreads, w, &start, &stop);
        jobs[w] = (space_trials_job){states, tables, pos_ext, measures,
                                     loads, heights, hist, start, stop,
                                     n, m, d, nbuckets, rng_block,
                                     partitioned, strategy, torus, 0};
    }
    run_jobs(space_trials_worker, (char *)jobs, sizeof(space_trials_job),
             nthreads);
    for (w = 0; w < nthreads; w++) {
        if (jobs[w].status < 0)
            return -1;
        status |= jobs[w].status;
    }
    return status;
}

#endif /* __SIZEOF_INT128__ */
"""

#: Bytes of scratch one ``space_trials`` call may hold across its worker
#: threads.  A call takes every trial it is given at once, so its thread
#: count is capped at this over one worker's scratch
#: (:func:`_worker_scratch_bytes`): a 2²⁴-server ring's worker holds
#: about 160 MiB, and a many-core host must not hold one per core.
_SCRATCH_BUDGET = 1 << 30


def _worker_scratch_bytes(n: int, torus: bool, build: bool, arcs: bool) -> int:
    """At most the scratch ``space_trials_worker`` allocates for trials
    of ``n`` servers, per server: for a ring a load byte and a bucket
    index of 1.06 bytes per bucket, with up to 2n buckets (4 in all;
    given tables are compacted into that index); a ring it builds adds
    8 bytes of positions and widens the load bytes to one per bucket for
    the build's counts (13), and 8 of arc lengths for the
    smaller/larger strategies (21); a 2-D torus holds 16 of points,
    which then hold the load bytes, 16 of their grid order, 4 of ids and
    up to 16 of cell offsets (52)."""
    if torus:
        per_server = 52
    elif build:
        per_server = 21 if arcs else 13
    else:
        per_server = 4
    return per_server * max(n, 1)


_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_PTR = ctypes.c_void_p
_MASK64 = (1 << 64) - 1

#: ctypes signatures of the exported kernels: name -> (argtypes, restype).
_SIGNATURES = {
    "repro_place_block": ([_PTR, _PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR], None),
    "repro_dynamic_window": (
        [_PTR, _PTR, _I64, _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _I64,
         _PTR, _PTR, _PTR],
        None,
    ),
    "repro_ring_assign": ([_PTR, _I64, _PTR, _PTR, _I64, _I64, _PTR], None),
    "repro_ring_table": ([_PTR, _I64, _I64, _PTR], _I64),
    "repro_space_trials": (
        [_PTR, _PTR, _PTR, _PTR] + [_I64] * 9 + [_PTR, _PTR, _PTR, _I64],
        _I64,
    ),
    "repro_torus_assign": ([_PTR, _I64, _PTR, _PTR, _PTR, _I64, _PTR], None),
    "repro_torus_grid": ([_PTR, _I64, _I64, _PTR, _PTR, _PTR], _I64),
    "repro_pcg64_fill": ([_PTR, _I64, _PTR], None),
    "repro_pcg64_advance": ([_PTR, _U64, _U64], None),
    # only the tests call these two
    "repro_ring_build": ([_PTR, _I64, _I64] + [_PTR] * 5, _I64),
    "repro_load_hist_u8": ([_PTR, _I64, _PTR], None),
}

#: Compiler flags.  Every kernel must round exactly like numpy and
#: cKDTree, so there is no ``-ffast-math`` or ``-march=native``, and
#: ``-ffp-contract=off`` keeps the torus distance ``dx*dx + dy*dy`` from
#: being fused into one FMA (rounded once) on targets that have one,
#: such as aarch64 or ``-mfma``.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> str:
    cc = os.environ.get("CC", "").strip()
    candidates = [cc] if cc else []
    candidates += ["cc", "gcc", "clang"]
    for cand in candidates:
        found = shutil.which(cand)
        if found:
            return found
    raise RuntimeError(
        "kernel backend 'cext' unavailable: no C compiler found "
        "(set $CC or install cc/gcc/clang)"
    )


def _compile_library() -> Path:
    """Compile the kernel library (cached by source hash) and return it."""
    key = "\0".join((C_SOURCE, *CFLAGS))
    digest = hashlib.blake2b(key.encode(), digest_size=16).hexdigest()
    libname = f"repro_kernels_{digest}.so"
    for base in (_cache_dir(), Path(tempfile.gettempdir()) / "repro-kernels"):
        libpath = base / libname
        if libpath.exists():
            return libpath
        cc = _find_compiler()
        try:
            base.mkdir(parents=True, exist_ok=True)
            src = base / f"repro_kernels_{digest}.c"
            src.write_text(C_SOURCE, encoding="utf-8")
            tmp = base / f".{libname}.{os.getpid()}.tmp"
            proc = subprocess.run(
                [cc, *CFLAGS, "-o", str(tmp), str(src)],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    "kernel backend 'cext' unavailable: compile failed: "
                    + proc.stderr.strip()[:500]
                )
            os.replace(tmp, libpath)  # atomic: concurrent builds converge
            return libpath
        except OSError:
            continue  # unwritable dir: try the tempdir fallback
    raise RuntimeError(
        "kernel backend 'cext' unavailable: no writable cache directory "
        "(set $REPRO_KERNEL_CACHE)"
    )


def _as_c(arr: np.ndarray, dtype) -> np.ndarray:
    """Read-only input: coerce to a C-contiguous array of ``dtype``."""
    return np.ascontiguousarray(arr, dtype=dtype)


def _check_inplace(arr: np.ndarray, dtype, name: str) -> np.ndarray:
    """In-place operand: must already be C-contiguous of ``dtype``."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise ValueError(
            f"{name} must be C-contiguous {np.dtype(dtype).name}, got "
            f"{arr.dtype.name} (contiguous={arr.flags.c_contiguous})"
        )
    return arr


def _unit_square(points, closed: bool) -> np.ndarray:
    """``points`` as C-contiguous ``(n, 2)`` float64 rows inside
    ``[0, 1)²`` (``[0, 1]²`` when ``closed``): the torus kernels index
    grid cells by coordinate, so anything else would read out of bounds.
    """
    pts = _as_c(points, np.float64)
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise ValueError(
            f"torus kernel points must be (x, y) rows, got shape {pts.shape}"
        )
    pts = pts.reshape(-1, 2)
    inside = (pts >= 0.0) & ((pts <= 1.0) if closed else (pts < 1.0))
    if not inside.all():
        raise ValueError("torus kernel points must lie in the unit square")
    return pts


def _p(arr: np.ndarray | None) -> int:
    """ctypes pointer value of an array (NULL for ``None``)."""
    return 0 if arr is None else arr.ctypes.data


def _pointers(arrays) -> np.ndarray:
    """The data addresses of ``arrays`` as a C array of pointers."""
    return np.array([a.ctypes.data for a in arrays], dtype=np.uintp)


def _pcg64_words(state: dict) -> list[int]:
    """``PCG64.state["state"]`` as the kernel's four 64-bit words."""
    s, inc = state["state"], state["inc"]
    return [s >> 64, s & _MASK64, inc >> 64, inc & _MASK64]


@functools.cache
def load_library() -> ctypes.CDLL:
    """Compile (or load the cached) C library and declare its signatures.

    Raises :class:`RuntimeError` when no compiler or writable cache
    directory is available.  Symbols the host compiler could not build
    (the PCG64 kernels need 128-bit integers) are simply absent.
    """
    lib = ctypes.CDLL(str(_compile_library()))
    for name, (argtypes, restype) in _SIGNATURES.items():
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = restype
    return lib


def build_backend():
    """Wrap the compiled kernels as a :class:`repro.kernels.KernelBackend`.

    Raises :class:`RuntimeError` when no compiler or writable cache
    directory is available — the registry's auto path treats that as
    "unavailable" and falls back.
    """
    lib = load_library()

    def place_block(bins, us, loads, measures, strategy_code, heights):
        """C kernel for one block of sequential greedy placements."""
        bins = _as_c(bins, np.int64)
        us = _as_c(us, np.float64)
        _check_inplace(loads, np.int64, "loads")
        measures = None if measures is None else _as_c(measures, np.float64)
        if heights is not None:
            _check_inplace(heights, np.int64, "heights")
        b, d = bins.shape
        lib.repro_place_block(
            _p(bins), _p(us), b, d, _p(loads), _p(measures),
            int(strategy_code), _p(heights),
        )

    def dynamic_window(
        kinds, args, start, stop, cands, us, d, remap, loads, measures,
        strategy_code, ball_bin, out,
    ):
        """C kernel for a churn-free insert/delete/lookup op window."""
        kinds = _as_c(kinds, np.int8)
        args = _as_c(args, np.int64)
        cands = _as_c(cands, np.int64)
        us = _as_c(us, np.float64)
        remap = None if remap is None else _as_c(remap, np.int64)
        measures = None if measures is None else _as_c(measures, np.float64)
        _check_inplace(loads, np.int64, "loads")
        _check_inplace(ball_bin, np.int64, "ball_bin")
        if out is not None:
            _check_inplace(out, np.int64, "out")
        counts = np.zeros(2, dtype=np.int64)
        lib.repro_dynamic_window(
            _p(kinds), _p(args), int(start), int(stop), _p(cands), _p(us),
            int(d), _p(remap), _p(loads), _p(measures), int(strategy_code),
            _p(ball_bin), _p(out), _p(counts),
        )
        return int(counts[0]), int(counts[1])

    def ring_assign(pts, table, pos_ext, nbuckets, n):
        """C kernel for the bucket-table ring ownership lookup, on the
        calling thread (threads split trials, not lookups)."""
        pts = _as_c(pts, np.float64)
        table = _as_c(table, np.int32)
        pos_ext = _as_c(pos_ext, np.float64)
        out = np.empty(pts.size, dtype=np.int64)
        lib.repro_ring_assign(
            _p(pts), pts.size, _p(table), _p(pos_ext), int(nbuckets),
            int(n), _p(out),
        )
        return out

    def ring_table(pos_ext, nbuckets):
        """C kernel building a ring's bucket table in one pass.

        ``pos_ext`` is the sorted positions plus the ``+inf`` sentinel.
        Returns the ``nbuckets + 1`` int32 table, or ``None`` when two
        positions are equal.
        """
        pos_ext = _as_c(pos_ext, np.float64)
        table = np.zeros(int(nbuckets) + 1, dtype=np.int32)
        distinct = lib.repro_ring_table(
            _p(pos_ext), pos_ext.size - 1, int(nbuckets), _p(table)
        )
        return table if distinct else None

    def space_trials(bit_generators, tables, measures, loads, heights, m, d,
                     strategy_code, partitioned, rng_block, threads, *,
                     space="ring", n=None, hist=False):
        """C kernel running whole ring or 2-D torus trials on numpy PCG64
        generators, as :class:`repro.kernels.KernelBackend` documents.

        A malformed call raises :class:`ValueError`.  A call outside the
        kernel's rule returns ``False`` before it reads a generator
        state, allocates an output or calls C; so does a call in which
        some space was not built, some given table does not fit the
        bucket index or some bin would pass 255 balls, after its C call,
        writing no generator state back.  Else it writes the states back
        and returns ``True``, or, given ``hist``, the ``(T, 256)``
        histograms.  It runs on at most as many threads as
        :data:`_SCRATCH_BUDGET` holds workers.
        """
        t = len(bit_generators)
        m = int(m)
        if loads is None:
            if tables is not None or n is None:
                raise ValueError(
                    "space_trials keeps loads in scratch only for the spaces "
                    "it builds, and then needs n"
                )
            n = int(n)
        else:
            _check_inplace(loads, np.int64, "loads")
            if loads.shape[0] != t:
                raise ValueError("space_trials needs one generator per loads row")
            n = loads.shape[1]
        if heights is not None:
            _check_inplace(heights, np.int64, "heights")
            if heights.shape != (t, m):
                raise ValueError(f"heights must have shape {(t, m)}")
        if space not in ("ring", "torus"):
            raise ValueError(f"space_trials runs rings or tori, got {space!r}")
        torus = space == "torus"
        if torus and tables is not None:
            raise ValueError("space_trials builds its own tori")
        if tables is None:
            if measures is not None:
                raise ValueError(
                    "space_trials computes the measures of the rings it draws"
                )
            if n < 1:
                raise ValueError("space_trials draws at least one position")
        else:
            nbuckets = int(tables[0][0])
            if len(tables) != t or any(
                nb != nbuckets or table.size != nbuckets + 1
                or pos_ext.size != n + 1
                for nb, table, pos_ext in tables
            ):
                raise ValueError(
                    "space_trials needs one (n, nbuckets) table per loads row"
                )
            if measures is not None and any(a.size != n for a in measures):
                raise ValueError("space_trials needs n measures per trial")
        code = int(strategy_code)
        # the kernel's rule (KernelBackend.space_trials): a C copy of
        # PCG64 per trial, int32 server indices, byte loads, no Voronoi
        # areas
        if (
            any(type(bg) is not np.random.PCG64 for bg in bit_generators)
            or len({id(bg) for bg in bit_generators}) < t
            or n >= 1 << 31
            or m >= 1 << 31
            or m > 255 * n
            or (torus and code >= 2)
        ):
            return False
        per_worker = _worker_scratch_bytes(n, torus, tables is None, code >= 2)
        threads = max(1, min(int(threads), _SCRATCH_BUDGET // per_worker))
        if tables is None:
            if torus:
                # the grid side, as TorusSpace._grid_side
                nbuckets = 1 << ((n - 1).bit_length() + 1) // 2
            else:
                nbuckets = 1 << max(0, (n - 1).bit_length())
            table_ptrs = ext_ptrs = measure_ptrs = None
        else:
            tabs = [_as_c(table, np.int32) for _, table, _ in tables]
            exts = [_as_c(pos_ext, np.float64) for _, _, pos_ext in tables]
            table_ptrs, ext_ptrs = _pointers(tabs), _pointers(exts)
            if measures is not None:
                measures = [_as_c(a, np.float64) for a in measures]
            measure_ptrs = None if measures is None else _pointers(measures)
        states = [bg.state for bg in bit_generators]
        words = np.array(
            [_pcg64_words(st["state"]) for st in states], dtype=np.uint64
        )
        out = np.empty((t, 256), dtype=np.int64) if hist else None
        status = lib.repro_space_trials(
            _p(words), _p(table_ptrs), _p(ext_ptrs), _p(measure_ptrs), t, n,
            m, int(d), nbuckets, int(rng_block), int(bool(partitioned)), code,
            int(torus), _p(loads), _p(heights), _p(out), threads,
        )
        if status < 0:
            raise MemoryError("space_trials: could not allocate kernel scratch")
        if status:
            return False
        for bg, st, (hi, lo) in zip(bit_generators, states, words[:, :2].tolist()):
            st["state"]["state"] = (hi << 64) | lo
            bg.state = st
        return True if out is None else out

    def torus_assign(pts, grid):
        """C kernel: nearest grid point of each ``(x, y)`` row of ``pts``.

        Coordinates must lie in ``[0, 1]``; 1 wraps to 0, as in cKDTree.
        """
        pts = _unit_square(pts, closed=True)
        side, start, xy, ids = grid
        out = np.empty(pts.shape[0], dtype=np.int64)
        lib.repro_torus_assign(
            _p(pts), pts.shape[0], _p(start), _p(xy), _p(ids), int(side),
            _p(out),
        )
        return out

    def torus_grid(points, side):
        """C kernel building the periodic grid of ``(n, 2)`` torus points.

        Returns ``(side, start, xy, ids)``, or ``None`` when two points
        coincide or the points are too unevenly spread for a grid.
        """
        pts = _unit_square(points, closed=False)
        n = pts.shape[0]
        if side < 1 or side & (side - 1):
            raise ValueError(f"grid side must be a power of two, got {side}")
        if n >= 1 << 31:
            return None
        start = np.zeros(side * side + 1, dtype=np.int32)
        xy = np.empty((n, 2), dtype=np.float64)
        ids = np.empty(n, dtype=np.int32)
        status = lib.repro_torus_grid(
            _p(pts), n, int(side), _p(start), _p(xy), _p(ids)
        )
        return (int(side), start, xy, ids) if status == 1 else None

    from repro.kernels import KernelBackend

    return KernelBackend(
        name="cext",
        place_block=place_block,
        dynamic_window=dynamic_window,
        ring_assign=ring_assign,
        ring_table=ring_table,
        space_trials=space_trials if hasattr(lib, "repro_space_trials") else None,
        torus_grid=torus_grid,
        torus_assign=torus_assign,
    )
