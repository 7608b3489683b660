"""Compiled executors of the CRS row sums and of the simulator's flow engine, and a
matrix checksum: one C library, proven at load.

Every kernel of the tree funnels through one function,
:func:`repro.sparse.spmv._segmented_rowsums`, over an ``(n, k)`` block (a
vector is its one-column view).  Its numpy code,
:func:`repro.sparse.spmv._numpy_rowsums`, is the *definition* of a row
sum — ``p[0] + pairwise_sum(p[1:])`` over the rounded products, the
association ``np.add.reduceat`` gives every segment — and this module is
a second *executor* of that definition: a C function that walks the rows
once, association for association (sequential below 8 terms, 8
accumulators up to 128, halves above), with no ``nnz`` temporary and,
called through :class:`ctypes.CDLL`, without the GIL.  Same bits, so
nothing above the one core can tell which one ran: there is no kernel
key, flag, parameter or environment switch for it.

Life cycle, all of it inside ``import repro.sparse`` (:func:`load`), so
no timed call ever pays for a compiler, a ``dlopen`` or the self-test:

1. the library is looked up in ``${XDG_CACHE_HOME:-~/.cache}/repro/``
   (a private directory under the system temp dir when that cannot be
   written) under a name that hashes the C source, the flags and the
   machine;
2. a miss compiles it with ``$CC``, else ``cc``, else ``gcc``
   (``-ffp-contract=off``; never ``-ffast-math`` or ``-march=native`` —
   a fused or reassociated sum is a different sum) into a temporary
   file that ``os.replace`` moves into place, so two processes racing
   the first build both end with a valid library;
3. it is accepted only if it matches the numpy executor **bit for bit**
   on a probe matrix (row lengths 0 … 300, mixed magnitudes, signed
   zeros, k in {1, 3}, overwrite and add), if its checksum (below)
   reads every byte of a probe and nothing but the bytes, and if its
   flow engine (below) replays a seeded probe exactly as the Python one
   does.

No compiler, a failed build, a failed load or a failed self-test of any
part means one logged warning, then numpy, crc32 and the Python flow
engine everywhere; :func:`status` says which.

The library's third part is a second executor of
:class:`repro.frame.resources.FlowNetwork`, whose Python code stays the
definition: five entry points (start, pause, settle, re-sum, fill) over
one ``FlowNet`` struct of addresses into numpy arrays the Python network
owns, doing the definition's float operations in its order (sums in flow
start order, the 1e-12 tie band, the closing shares, the full-refill
flag, the stalled running counts).  :class:`FlowEngine` binds them and
builds the struct's ctypes mirror from the C declaration itself.  The
load-time replay (``repro.frame.resources.replay_mismatch``) compares
every scheduled delay, rate, byte count left and ``ResourceStats`` field
as ``float.hex``: the tie band from both sides, a component filling that
gives up at its second round, settles 5e-6 and 5e-7 bytes from an end,
sums that differ in another order, zero capacities and multipliers, and
random churn.

The same library holds a second function, ``repro_checksum``: a 64-bit
hash of xxh64's construction, one pass over the bytes.  It is not at
memory speed: on a 2-vCPU host it reads the 4–6 MB arrays of the small
matrices at 8–9 GB/s, where ``np.sum`` over the same bytes reads
17–19 GB/s (6 against 9.5 GB/s at 256 MB); crc32 runs at about a third
of its speed.  :func:`checksum` chains it over
a matrix's three arrays for
:meth:`~repro.sparse.csr.CSRMatrix.content_fingerprint` and over its two
index arrays for :meth:`~repro.sparse.csr.CSRMatrix.index_fingerprint`,
the plan cache's witnesses that nothing was mutated in place; without
the library those witnesses are crc32.

Per call, :func:`rowsums` declines ("not taken", the caller runs numpy)
whatever it could not execute identically: non-int64 indices,
non-float64 / non-C-contiguous / read-only arrays, empty operands, and
an ``out`` that shares memory with an input (numpy forms all products
before it writes; the C loop does not).  Column indices and row extents
are range-checked inside the C pass, so a matrix mutated after
construction raises :class:`IndexError` instead of reading outside its
arrays.  A call costs about 2 us of Python on top of the loop: the
matrix's three arrays are vetted and their addresses looked up once per
matrix (:func:`_bind_matrix`), only ``x`` and ``out`` per call.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = ["NativeStatus", "checksum", "load", "rowsums", "status"]

_LOG = logging.getLogger(__name__)

#: Everything after ``$CC``.  ``-ffp-contract=off`` keeps ``v * x + s``
#: two roundings where the target has a fused multiply-add.
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

#define PW_BLOCK 128 /* numpy's PW_BLOCKSIZE */
#define INLINE static inline __attribute__((always_inline))

/* Sums over i < n (n <= PW_BLOCK) of the rounded products
 * val[i] * X[col[i]*k + j], one per column j < W: the two base cases of
 * numpy's pairwise_sum.  Returns 1 at a column index outside [0, ncols). */
INLINE int
block_sum(const double *val, const i64 *col, i64 n, const double *X, i64 k,
          u64 ncols, const int W, double *res)
{
    double r[8][8];
    i64 i;
    int j, u;
    if (n < 8) {
        for (j = 0; j < W; j++) res[j] = -0.0;
        for (i = 0; i < n; i++) {
            u64 c = (u64)col[i];
            if (c >= ncols) return 1;
            const double *xr = X + c * k;
            double v = val[i];
            for (j = 0; j < W; j++) res[j] += v * xr[j];
        }
        return 0;
    }
    for (u = 0; u < 8; u++) {
        u64 c = (u64)col[u];
        if (c >= ncols) return 1;
        const double *xr = X + c * k;
        double v = val[u];
        for (j = 0; j < W; j++) r[u][j] = v * xr[j];
    }
    for (i = 8; i < n - (n % 8); i += 8) {
        for (u = 0; u < 8; u++) {
            u64 c = (u64)col[i + u];
            if (c >= ncols) return 1;
            const double *xr = X + c * k;
            double v = val[i + u];
            for (j = 0; j < W; j++) r[u][j] += v * xr[j];
        }
    }
    for (j = 0; j < W; j++)
        res[j] = ((r[0][j] + r[1][j]) + (r[2][j] + r[3][j])) +
                 ((r[4][j] + r[5][j]) + (r[6][j] + r[7][j]));
    for (; i < n; i++) {
        u64 c = (u64)col[i];
        if (c >= ncols) return 1;
        const double *xr = X + c * k;
        double v = val[i];
        for (j = 0; j < W; j++) res[j] += v * xr[j];
    }
    return 0;
}

/* numpy's pairwise_sum for any n: above PW_BLOCK terms, the sum of two
 * halves, the first rounded down to a multiple of 8. */
static int
pairwise_sum(const double *val, const i64 *col, i64 n, const double *X, i64 k,
             u64 ncols, int W, double *res)
{
    double a[8], b[8];
    i64 n2 = n / 2;
    int j;
    if (n <= PW_BLOCK) {
        switch (W) {
        case 1: return block_sum(val, col, n, X, k, ncols, 1, res);
        case 2: return block_sum(val, col, n, X, k, ncols, 2, res);
        case 4: return block_sum(val, col, n, X, k, ncols, 4, res);
        default: return block_sum(val, col, n, X, k, ncols, 8, res);
        }
    }
    n2 -= n2 % 8;
    if (pairwise_sum(val, col, n2, X, k, ncols, W, a)) return 1;
    if (pairwise_sum(val + n2, col + n2, n - n2, X, k, ncols, W, b)) return 1;
    for (j = 0; j < W; j++) res[j] = a[j] + b[j];
    return 0;
}

/* One row of n >= 1 terms, W columns: p[0] + pairwise_sum(p[1:]), the
 * association np.add.reduceat gives each segment. */
INLINE int
row_tile(const double *val, const i64 *col, i64 n, const double *X, i64 k,
         u64 ncols, const int W, int add, double *out)
{
    double rest[8];
    int j;
    u64 c = (u64)col[0];
    if (c >= ncols) return 1;
    if (n - 1 <= PW_BLOCK) {
        if (block_sum(val + 1, col + 1, n - 1, X, k, ncols, W, rest)) return 1;
    } else if (pairwise_sum(val + 1, col + 1, n - 1, X, k, ncols, W, rest)) {
        return 1;
    }
    const double *xr = X + c * k;
    double v = val[0];
    if (add)
        for (j = 0; j < W; j++) out[j] += v * xr[j] + rest[j];
    else
        for (j = 0; j < W; j++) out[j] = v * xr[j] + rest[j];
    return 0;
}

static int
overlap(const void *a, i64 na, const void *b, i64 nb)
{
    uintptr_t pa = (uintptr_t)a, pb = (uintptr_t)b;
    return pa < pb + (uintptr_t)nb * 8 && pb < pa + (uintptr_t)na * 8;
}

/* out (+)= row sums of val * X[col] for the k columns of the row-major
 * X (ncols x k); k = 1 is the vector kernel.  An empty row reads 0 and,
 * under add, leaves out alone.  Returns -1 when done, -2 (nothing
 * written) when out overlaps an input, else the first row whose extent
 * leaves [0, nnz] or that holds a column index outside [0, ncols).
 * Scalars travel as intptr_t: the caller passes every argument as a
 * pointer-sized integer. */
intptr_t
repro_rowsums(intptr_t nrows, const i64 *row_ptr, const i64 *col,
              const double *val, intptr_t nnz, const double *X, intptr_t ncols,
              intptr_t k, double *out, intptr_t add)
{
    i64 r, j;
    if (overlap(out, nrows * k, X, ncols * k) || overlap(out, nrows * k, val, nnz) ||
        overlap(out, nrows * k, col, nnz) || overlap(out, nrows * k, row_ptr, nrows + 1))
        return -2;
    for (r = 0; r < nrows; r++) {
        i64 s = row_ptr[r], e = row_ptr[r + 1], n = e - s;
        double *o = out + r * k;
        if (s < 0 || e < s || e > nnz) return r;
        if (n == 0) {
            if (!add)
                for (j = 0; j < k; j++) o[j] = 0.0;
            continue;
        }
        const double *v = val + s;
        const i64 *c = col + s;
        if (k == 1) {
            if (row_tile(v, c, n, X, 1, (u64)ncols, 1, (int)add, o)) return r;
            continue;
        }
        for (j = 0; j + 8 <= k; j += 8)
            if (row_tile(v, c, n, X + j, k, (u64)ncols, 8, (int)add, o + j)) return r;
        if (j + 4 <= k) {
            if (row_tile(v, c, n, X + j, k, (u64)ncols, 4, (int)add, o + j)) return r;
            j += 4;
        }
        if (j + 2 <= k) {
            if (row_tile(v, c, n, X + j, k, (u64)ncols, 2, (int)add, o + j)) return r;
            j += 2;
        }
        if (j < k && row_tile(v, c, n, X + j, k, (u64)ncols, 1, (int)add, o + j))
            return r;
    }
    return -1;
}

/* The checksum: xxh64's construction.  Four independent lanes over 32-byte
 * stripes keep four multiplies in flight, so one pass keeps up with memory
 * without SIMD flags. */
#define P1 11400714785074694791ULL
#define P2 14029467366897019727ULL
#define P3 1609587929392839161ULL
#define P4 9650029242287828579ULL
#define P5 2870177450012600261ULL

INLINE u64 rotl(u64 x, int r) { return (x << r) | (x >> (64 - r)); }
INLINE u64 load8(const unsigned char *p) { u64 w; memcpy(&w, p, 8); return w; }
INLINE u64 mix(u64 acc, u64 w) { return rotl(acc + w * P2, 31) * P1; }
INLINE u64 merge(u64 h, u64 lane) { return (h ^ mix(0, lane)) * P1 + P4; }

/* 64-bit checksum of the n bytes at p, chained from seed (the previous
 * array's checksum).  Reads every byte once, at any alignment. */
uint64_t
repro_checksum(const unsigned char *p, intptr_t n, uint64_t seed)
{
    const unsigned char *end = p + n;
    u64 h, v[4] = {seed + P1 + P2, seed + P2, seed, seed - P1};
    int i;
    if (n >= 32) {
        do {
            for (i = 0; i < 4; i++) v[i] = mix(v[i], load8(p + 8 * i));
            p += 32;
        } while (end - p >= 32);
        h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
        for (i = 0; i < 4; i++) h = merge(h, v[i]);
    } else {
        h = seed + P5;
    }
    h += (u64)n;
    for (; end - p >= 8; p += 8) h = rotl(h ^ mix(0, load8(p)), 27) * P1 + P4;
    if (end - p >= 4) {
        uint32_t w;
        memcpy(&w, p, 4);
        h = rotl(h ^ (u64)w * P1, 23) * P2 + P3;
        p += 4;
    }
    for (; p < end; p++) h = rotl(h ^ *p * P5, 11) * P1;
    h = (h ^ (h >> 33)) * P2;
    h = (h ^ (h >> 29)) * P3;
    return h ^ (h >> 32);
}

/* The flow engine: a second executor of repro.frame.resources.FlowNetwork
 * (settle, re-sum, component walk, progressive filling, next completion).
 * Every float operation is the Python code's, in its order: sums run in
 * flow start order, a share is max(0, cap - consumed) / denom, a frozen
 * rate weight * share.  Python owns every array; FlowNet holds their
 * addresses (all fields 8 bytes, mirrored by a ctypes.Structure). */
#define EPS_BYTES 1e-6
#define TIE_BAND (1.0 + 1e-12)

typedef struct {
    /* flow slots; slot s's edges are [s * stride, s * stride + nedge[s]) */
    double *weight, *left, *rate, *shown; /* shown: the rate Python holds */
    i64 *paused, *nedge, *erid;
    double *emult;
    i64 stride;
    i64 *live, nlive; /* live slots in start order */
    i64 *flows, *frozen; /* scratch, one entry per slot */
    /* resources */
    i64 nres;
    double *busy, *bytes, *denom, *cap, *level;
    i64 *hwm, *running, *summed, *has_level, nlevels;
    i64 *changed, *chlist, nch, any_runnable, full_next;
    /* scratch, one entry per resource (uoff: nres + 1) */
    double *acc_w, *acc_d, *share, *consumed, *closed_level;
    i64 *acc_n, *uoff, *plen, *open, *stamp, *rids, *closed, *npos, epoch;
    /* runnable users of each resource, in start order: [uoff[r], uoff[r + 1]) */
    i64 *uslot;
    double *umult;
    /* results: finished slots, resources needing a capacity, rates to show */
    i64 *out, nneed;
    double *outd, delay;
} FlowNet;

INLINE double nonneg(double x) { return x > 0.0 ? x : 0.0; } /* max(0.0, x) */

INLINE u64 bits(double x) { u64 b; memcpy(&b, &x, 8); return b; }

INLINE void
mark(FlowNet *n, i64 r)
{
    if (!n->changed[r]) {
        n->changed[r] = 1;
        n->chlist[n->nch++] = r;
    }
}

INLINE void
forget(FlowNet *n, i64 r)
{
    if (n->has_level[r]) {
        n->has_level[r] = 0;
        n->nlevels--;
    }
}

void
repro_flow_start(FlowNet *n, intptr_t s, intptr_t nedge, intptr_t paused, double weight,
                 double size)
{
    i64 j;
    n->weight[s] = weight;
    n->left[s] = size;
    n->rate[s] = n->shown[s] = 0.0;
    n->paused[s] = paused;
    n->nedge[s] = nedge;
    n->live[n->nlive++] = s;
    for (j = 0; j < nedge; j++) mark(n, n->erid[s * n->stride + j]);
}

void
repro_flow_pause(FlowNet *n, intptr_t s, intptr_t paused)
{
    i64 j;
    n->paused[s] = paused;
    for (j = 0; j < n->nedge[s]; j++) mark(n, n->erid[s * n->stride + j]);
}

/* FlowNetwork._settle for dt > 0: move every running flow, count busy
 * time, retire the finished ones (their slots go to out, in start
 * order).  Returns how many finished. */
intptr_t
repro_flow_settle(FlowNet *n, double dt)
{
    i64 k, j, r, s, keep = 0, nfin = 0, S = n->stride;
    for (k = 0; k < n->nlive; k++) {
        s = n->live[k];
        double rate = n->rate[s];
        if (n->paused[s] || rate <= 0) {
            n->live[keep++] = s;
            continue;
        }
        const i64 *er = n->erid + s * S;
        const double *em = n->emult + s * S;
        for (j = 0; j < n->nedge[s]; j++) n->bytes[er[j]] += rate * em[j] * dt;
        double left = n->left[s] - rate * dt;
        n->left[s] = left;
        if (left <= EPS_BYTES)
            n->out[nfin++] = s;
        else
            n->live[keep++] = s;
    }
    n->nlive = keep;
    for (r = 0; r < n->nres; r++)
        if (n->running[r]) n->busy[r] += dt;
    for (k = 0; k < nfin; k++) {
        s = n->out[k];
        n->rate[s] = n->left[s] = 0.0;
        for (j = 0; j < n->nedge[s]; j++) {
            r = n->erid[s * S + j];
            n->running[r]--;
            mark(n, r);
        }
    }
    return nfin;
}

/* The first half of FlowNetwork._recompute_rates: re-sum the changed
 * resources over their runnable flows in start order.  A changed
 * resource with a runnable flow goes to out with its active weight in
 * outd, and the caller puts its capacity function's value in its place.
 * Returns how many there are. */
intptr_t
repro_flow_resum(FlowNet *n)
{
    i64 c, k, j, r, s, need = 0, S = n->stride;
    for (c = 0; c < n->nch; c++) {
        r = n->chlist[c];
        n->acc_w[r] = n->acc_d[r] = 0.0;
        n->acc_n[r] = 0;
    }
    for (k = 0; k < n->nlive; k++) {
        s = n->live[k];
        for (j = 0; j < n->nedge[s]; j++) {
            r = n->erid[s * S + j];
            if (!n->changed[r]) continue;
            if (n->paused[s]) {
                n->rate[s] = 0.0;
            } else {
                n->acc_w[r] += n->weight[s];
                n->acc_d[r] += n->weight[s] * n->emult[s * S + j];
                n->acc_n[r]++;
            }
        }
    }
    n->any_runnable = 0;
    for (c = 0; c < n->nch; c++) {
        r = n->chlist[c];
        if (!n->acc_n[r]) {
            n->summed[r] = 0;
            n->running[r] = 0;
            forget(n, r);
            continue;
        }
        n->any_runnable = 1;
        if (n->acc_n[r] > n->hwm[r]) n->hwm[r] = n->acc_n[r];
        n->summed[r] = 1;
        n->denom[r] = n->acc_d[r];
        n->out[need] = r;
        n->outd[need++] = n->acc_w[r];
    }
    n->nneed = need;
    return need;
}

/* Every summed resource's runnable users, in start order. */
static void
build_users(FlowNet *n)
{
    i64 k, j, r, s, S = n->stride, *cnt = n->uoff + 1;
    for (r = 0; r <= n->nres; r++) n->uoff[r] = 0;
    for (k = 0; k < n->nlive; k++) {
        s = n->live[k];
        if (n->paused[s]) continue;
        for (j = 0; j < n->nedge[s]; j++) cnt[n->erid[s * S + j]]++;
    }
    for (r = 0; r < n->nres; r++) {
        n->plen[r] = 0;
        n->uoff[r + 1] += n->uoff[r];
    }
    for (k = 0; k < n->nlive; k++) {
        s = n->live[k];
        if (n->paused[s]) continue;
        for (j = 0; j < n->nedge[s]; j++) {
            r = n->erid[s * S + j];
            i64 at = n->uoff[r] + n->plen[r]++;
            n->uslot[at] = s;
            n->umult[at] = n->emult[s * S + j];
        }
    }
}

/* FlowNetwork._fill over the nf flows in n->flows (rates -1) and the nr
 * resources in n->rids.  Returns 0 at a round within the tie band of an
 * outside resource's closing share, but not equal to it. */
static int
fill(FlowNet *n, i64 nr, i64 nf)
{
    i64 i, u, z, j, r, s, S = n->stride;
    i64 unfrozen = nf, nclosed = 0, nfz;
    int exact = 1, stalled = 0;
    for (i = 0; i < nr; i++) {
        r = n->rids[i];
        forget(n, r);
        n->plen[r] = n->uoff[r + 1] - n->uoff[r];
        n->open[r] = n->denom[r] > 0;
        if (n->open[r]) {
            n->share[r] = n->cap[r] / n->denom[r];
            n->consumed[r] = 0.0;
        }
    }
    for (;;) {
        int have = 0;
        double s_min = 0.0, limit;
        for (i = 0; i < nr; i++) {
            r = n->rids[i];
            if (n->open[r] && (!have || n->share[r] < s_min)) {
                s_min = n->share[r];
                have = 1;
            }
        }
        if (!have || s_min == INFINITY) break;
        limit = s_min * TIE_BAND;
        if (n->nlevels)
            for (r = 0; r < n->nres; r++) {
                double lv = n->level[r];
                if (n->has_level[r] &&
                    ((lv < s_min && s_min <= lv * TIE_BAND) || (lv > s_min && lv <= limit)))
                    return 0;
            }
        nfz = 0;
        for (i = 0; i < nr; i++) {
            r = n->rids[i];
            if (!n->open[r] || !(n->share[r] <= limit)) continue;
            n->open[r] = 0;
            n->closed[nclosed] = r;
            n->closed_level[nclosed++] = s_min;
            if (n->share[r] != s_min) exact = 0;
            for (u = n->uoff[r]; u < n->uoff[r] + n->plen[r]; u++) {
                s = n->uslot[u];
                if (n->rate[s] < 0) {
                    n->rate[s] = n->weight[s] * s_min;
                    n->frozen[nfz++] = s;
                    if (n->rate[s] == 0) stalled = 1;
                }
            }
        }
        unfrozen -= nfz;
        n->epoch++;
        for (z = 0; z < nfz; z++) {
            s = n->frozen[z];
            for (j = 0; j < n->nedge[s]; j++) {
                r = n->erid[s * S + j];
                if (n->stamp[r] == n->epoch) continue;
                n->stamp[r] = n->epoch;
                if (!n->open[r]) continue;
                double c = n->consumed[r], d = 0.0;
                i64 keep = n->uoff[r];
                for (u = n->uoff[r]; u < n->uoff[r] + n->plen[r]; u++) {
                    i64 t = n->uslot[u];
                    double m = n->umult[u];
                    if (n->rate[t] >= 0) {
                        c += n->rate[t] * m;
                    } else {
                        d += n->weight[t] * m;
                        n->uslot[keep] = t;
                        n->umult[keep++] = m;
                    }
                }
                n->consumed[r] = c;
                if (d > 0) {
                    n->plen[r] = keep - n->uoff[r];
                    n->share[r] = nonneg(n->cap[r] - c) / d;
                } else {
                    n->open[r] = 0;
                }
            }
        }
    }
    if (unfrozen) {
        stalled = 1;
        for (z = 0; z < nf; z++)
            if (n->rate[n->flows[z]] < 0) n->rate[n->flows[z]] = 0.0;
    }
    for (i = 0; i < nclosed; i++) {
        r = n->closed[i];
        n->level[r] = n->closed_level[i];
        n->has_level[r] = 1;
        n->nlevels++;
    }
    if (stalled) {
        for (i = 0; i < nr; i++) n->npos[n->rids[i]] = 0;
        for (z = 0; z < nf; z++) {
            s = n->flows[z];
            if (n->rate[s] > 0)
                for (j = 0; j < n->nedge[s]; j++) n->npos[n->erid[s * S + j]]++;
        }
    }
    for (i = 0; i < nr; i++) {
        r = n->rids[i];
        n->running[r] = stalled ? n->npos[r] : n->uoff[r + 1] - n->uoff[r];
    }
    n->full_next = !exact;
    return 1;
}

/* FlowNetwork._component + _fill: the runnable flows reachable from the
 * changed resources, resource to flow to resource. */
static int
fill_component(FlowNet *n)
{
    i64 c, i, u, j, r, s, nr = 0, nf = 0, S = n->stride;
    build_users(n);
    n->epoch++;
    for (c = 0; c < n->nch; c++) {
        r = n->chlist[c];
        n->stamp[r] = n->epoch;
        if (n->summed[r]) n->rids[nr++] = r;
    }
    for (i = 0; i < nr; i++) { /* grows while it is walked */
        r = n->rids[i];
        for (u = n->uoff[r]; u < n->uoff[r + 1]; u++) {
            s = n->uslot[u];
            if (n->rate[s] >= 0) {
                n->rate[s] = -1.0;
                n->flows[nf++] = s;
                for (j = 0; j < n->nedge[s]; j++) {
                    i64 q = n->erid[s * S + j];
                    if (n->stamp[q] != n->epoch) {
                        n->stamp[q] = n->epoch;
                        n->rids[nr++] = q;
                    }
                }
            }
        }
    }
    return fill(n, nr, nf);
}

/* FlowNetwork._fill_all */
static void
fill_all(FlowNet *n)
{
    i64 k, r, s, nr = 0, nf = 0;
    for (k = 0; k < n->nlive; k++) {
        s = n->live[k];
        if (n->paused[s]) {
            n->rate[s] = 0.0;
        } else {
            n->rate[s] = -1.0;
            n->flows[nf++] = s;
        }
    }
    n->nlevels = 0;
    for (r = 0; r < n->nres; r++) {
        n->has_level[r] = n->running[r] = 0;
        if (n->summed[r]) n->rids[nr++] = r;
    }
    build_users(n); /* a failed component filling left its lists short */
    fill(n, nr, nf);
}

/* The second half of FlowNetwork._recompute_rates, after the caller put
 * the capacities of the resources repro_flow_resum named in outd; then
 * the next completion of _reschedule (delay, -1 for none).  The slots
 * whose rate changed go to out and their rates to outd.  Returns how many
 * there are. */
intptr_t
repro_flow_fill(FlowNet *n)
{
    i64 i, k, s, nout = 0;
    double best = -1.0;
    for (i = 0; i < n->nneed; i++) n->cap[n->out[i]] = nonneg(n->outd[i]);
    if (n->full_next || (n->any_runnable && !fill_component(n))) fill_all(n);
    for (i = 0; i < n->nch; i++) n->changed[n->chlist[i]] = 0;
    n->nch = n->nneed = 0;
    for (k = 0; k < n->nlive; k++) {
        s = n->live[k];
        double rate = n->rate[s];
        if (bits(rate) != bits(n->shown[s])) {
            n->shown[s] = rate;
            n->out[nout] = s;
            n->outd[nout++] = rate;
        }
        if (rate > 0) {
            double d = n->left[s] / rate;
            if (best < 0 || d < best) best = d;
        }
    }
    n->delay = best;
    return nout;
}
"""

#: Row lengths of the load-time probe: empty, the sequential range, both
#: sides of the 8-accumulator threshold (a row of n terms sums n - 1 of
#: them pairwise) and of numpy's 128-term block, and one split twice.
#: The probe holds them twice — values of one magnitude, where a wrong
#: association shows in the last bit of nearly every row, then of mixed
#: magnitudes — and ends in two rows that sum nothing but -0.0.
_PROBE_ROW_LENGTHS = (0, 1, 2, 8, 9, 10, 128, 129, 130, 300)
_PROBE_NCOLS = 97
#: Byte lengths the checksum is probed at: 0-9 words (no stripe, one,
#: two, and the word tail after each), then two ragged lengths that reach
#: the 4-byte and 1-byte tails.
_PROBE_CHECKSUM_BYTES = tuple(range(0, 80, 8)) + (7, 45)

_I8 = np.dtype(np.int64)
_F8 = np.dtype(np.float64)


@dataclass(frozen=True)
class NativeStatus:
    """What :func:`load` found; read-only, there is nothing to set."""

    available: bool
    library: str | None
    compiler: str | None  # None when the cached library was reused
    flags: tuple[str, ...]
    reason: str | None  # why it is off; None when available

    def describe(self) -> str:
        """One line for ``repro kernels``."""
        if not self.available:
            return f"numpy executor only ({self.reason})"
        built = f"built with {self.compiler}" if self.compiler else "cached build"
        return f"compiled executor {self.library} ({built}; {' '.join(self.flags)})"

    def to_dict(self) -> dict:
        """JSON-ready (what a benchmark records about its environment)."""
        # flags as a list: the payload must equal its own JSON round trip
        return {**asdict(self), "flags": list(self.flags)}


class _Unavailable(Exception):
    """Why the compiled executor cannot be used on this machine."""


_addressof = ctypes.addressof
_from_buffer = ctypes.c_byte.from_buffer

# Build-once state, written by load() during ``import repro.sparse`` and
# only read afterwards.
_kernel = None
_checksum = None
_flow = None  # a FlowEngine
_status = NativeStatus(False, None, None, FLAGS, "repro.sparse has not been imported")


#: ``id(matrix) -> _bind_matrix(matrix)``: three of the five addresses a
#: call needs belong to the matrix and cost more to look up than a small
#: kernel takes to run.  An entry is dropped when its matrix is collected.
_handles: dict[int, tuple] = {}


def status() -> NativeStatus:
    """Whether the compiled executor is in use, from where, or why not."""
    return _status


def _cache_dir() -> Path:
    """The first directory the library can be written to (created)."""
    uid = os.getuid() if hasattr(os, "getuid") else None
    candidates = [Path(tempfile.gettempdir()) / f"repro-{'user' if uid is None else uid}"]
    errors = []
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
        candidates.insert(0, cache / "repro")
    except RuntimeError as exc:  # no XDG_CACHE_HOME and no home directory
        errors.append(str(exc))
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            # a shared temp dir is world-writable: never load a library
            # out of a directory somebody else made
            if uid is not None and path.stat().st_uid != uid:
                raise PermissionError(f"{path} belongs to another user")
            if os.access(path, os.W_OK | os.X_OK):
                return path
            errors.append(f"{path}: not writable")
        except OSError as exc:
            errors.append(f"{path}: {exc}")
    raise _Unavailable("no writable cache directory (" + "; ".join(errors) + ")")


def _compiler() -> list[str]:
    cc = os.environ.get("CC")
    if cc:
        try:
            return shlex.split(cc)
        except ValueError as exc:  # unbalanced quotes
            raise _Unavailable(f"cannot parse $CC ({cc!r}): {exc}") from exc
    for name in ("cc", "gcc"):
        found = shutil.which(name)
        if found:
            return [found]
    raise _Unavailable("no C compiler: $CC is unset and neither cc nor gcc is on PATH")


def _library() -> tuple[Path, str | None]:
    """Path of the library, compiling it first if this machine has none."""
    tag = hashlib.sha256(
        "\0".join((_SOURCE, *FLAGS, platform.machine(), sys.platform)).encode()
    ).hexdigest()[:16]
    directory = _cache_dir()
    lib = directory / f"rowsums-{tag}.so"
    if lib.exists():
        return lib, None
    cc = _compiler()
    try:
        # built next to its destination, so os.replace never crosses a
        # file system and a racing process sees the old state or the new
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            src = Path(tmp) / "rowsums.c"
            src.write_text(_SOURCE)
            built = Path(tmp) / lib.name
            proc = subprocess.run(
                [*cc, *FLAGS, str(src), "-o", str(built)],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                detail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                raise _Unavailable(
                    f"{shlex.join(cc)} exited with status {proc.returncode}: {detail[0]}"
                )
            os.replace(built, lib)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise _Unavailable(f"building with {shlex.join(cc)} failed: {exc}") from exc
    return lib, shlex.join(cc)


def _flownet_fields(source: str) -> list[tuple[str, type]]:
    """The ctypes fields of the C ``FlowNet`` struct, read off *source*:
    every member is 8 bytes, an address, an int64 or a double."""
    body = source.split("typedef struct {", 1)[1].split("} FlowNet;", 1)[0]
    fields = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        ctype, *names = decl.replace(",", " ").split()
        for name in names:
            if name.startswith("*"):
                fields.append((name[1:], ctypes.c_void_p))
            else:
                fields.append((name, ctypes.c_double if ctype == "double" else ctypes.c_int64))
    return fields


class FlowEngine:
    """The flow engine's five entry points in one library, and the struct
    they share (:class:`repro.frame.resources.FlowNetwork` drives them)."""

    def __init__(self, cdll, source: str) -> None:
        self.FlowNet = type("FlowNet", (ctypes.Structure,), {"_fields_": _flownet_fields(source)})
        address, count, double = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
        # every argument after the struct's address is an intptr_t or a double
        for name, args, result in (
            ("start", (address,) * 3 + (double,) * 2, None),  # slot, edges, paused, weight, size
            ("pause", (address,) * 2, None),  # slot, paused
            ("settle", (double,), count),  # dt
            ("resum", (), count),
            ("fill", (), count),
        ):
            fn = getattr(cdll, f"repro_flow_{name}")
            fn.argtypes, fn.restype = [address, *args], result
            setattr(self, name, fn)


def _bind(lib: Path):
    """``(repro_rowsums, repro_checksum, FlowEngine)`` of *lib*, typed for ctypes."""
    try:
        cdll = ctypes.CDLL(str(lib))
        fn, digest = cdll.repro_rowsums, cdll.repro_checksum
        flow = FlowEngine(cdll, _SOURCE)
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"loading {lib} failed: {exc}") from exc
    # every argument as c_void_p, the integers too: ctypes converts a
    # Python int to a pointer-sized value in half the time it takes to
    # box a c_int64, and the C side declares them intptr_t
    fn.argtypes = [ctypes.c_void_p] * 10
    fn.restype = ctypes.c_ssize_t
    digest.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_uint64]
    digest.restype = ctypes.c_uint64
    return fn, digest, flow


def _address(array: np.ndarray) -> int:
    """Address of *array*'s first byte; TypeError / ValueError unless it is
    writable, C-contiguous and not empty.

    ``from_buffer`` is both the check and by far the cheapest way from
    an ndarray to a pointer (~0.25 us; ``ndarray.ctypes.data`` and
    ``__array_interface__`` take 1 us each).
    """
    return _addressof(_from_buffer(array))


def _self_test(kernels) -> None:
    """Accept the library only if each of its parts passes its probe."""
    fn, digest, flow = kernels
    _test_rowsums(fn)
    _test_checksum(digest)
    _test_flow(flow)


def _test_rowsums(fn) -> None:
    """Accept *fn* only if it reproduces the numpy executor's bits."""
    from repro.sparse.spmv import _numpy_rowsums

    rng = np.random.default_rng(1101_0091)
    lengths = _PROBE_ROW_LENGTHS * 2 + (1, 3)
    row_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    nnz, nrows = int(row_ptr[-1]), row_ptr.size - 1
    col_idx = rng.integers(1, _PROBE_NCOLS, nnz)
    val = rng.standard_normal(nnz)
    mixed = slice(int(row_ptr[len(_PROBE_ROW_LENGTHS)]), nnz)
    val[mixed] *= 10.0 ** rng.integers(-12, 13, val[mixed].size)
    # the sign of an all-zero sum depends on the value numpy seeds its
    # accumulator with: column 0 of X is -0.0 and only these rows read it
    zeros = slice(int(row_ptr[-3]), nnz)
    col_idx[zeros] = 0
    val[zeros] = 1.0
    for k in (1, 3):
        X = rng.standard_normal((_PROBE_NCOLS, k))
        X[0] = -0.0
        start = rng.standard_normal((nrows, k))
        for add in (False, True):
            got, want = start.copy(), start.copy()
            _numpy_rowsums(row_ptr, col_idx, val, X, want, add=add)
            code = fn(
                nrows, _address(row_ptr), _address(col_idx), _address(val), nnz,
                _address(X), _PROBE_NCOLS, k, _address(got), add,
            )
            if code != -1 or not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
                raise _Unavailable(
                    f"self-test failed (k={k}, add={add}, numpy {np.__version__}): the "
                    f"library does not reproduce np.add.reduceat bit for bit"
                )


def _test_checksum(digest) -> None:
    """Accept *digest* only if it reads every byte and nothing but the bytes:
    a copy at another (odd) address sums the same, and flipping any one
    byte of a probe changes the sum."""
    data = np.random.default_rng(2011_0028).integers(
        0, 256, max(_PROBE_CHECKSUM_BYTES), dtype=np.uint8
    )
    for n in _PROBE_CHECKSUM_BYTES:
        probe = data[:n].copy()
        moved = np.empty(n + 1, np.uint8)[1:]
        moved[:] = probe
        want = digest(probe.ctypes.data, n, 0)
        if digest(moved.ctypes.data, n, 0) != want:
            raise _Unavailable(
                f"self-test failed: the checksum of {n} bytes depends on their address"
            )
        for i in range(n):
            probe[i] ^= 0xFF
            if digest(probe.ctypes.data, n, 0) == want:
                raise _Unavailable(
                    f"self-test failed: the checksum of {n} bytes misses a flip of byte {i}"
                )
            probe[i] ^= 0xFF


def _test_flow(flow) -> None:
    """Accept *flow* only if it replays the flow engine's probe bit for bit."""
    from repro.frame.resources import replay_mismatch

    try:
        mismatch = replay_mismatch(flow)
    except Exception as exc:  # noqa: BLE001 - any failure of the replay rejects the library
        mismatch = f"the replay raised {exc!r}"
    if mismatch:
        raise _Unavailable(
            f"self-test failed: the flow engine does not reproduce FlowNetwork bit for "
            f"bit ({mismatch})"
        )


def load() -> NativeStatus:
    """Find or build the library, prove it, switch it on.  Never raises.

    Called once, by ``repro/sparse/__init__.py``.
    """
    global _kernel, _checksum, _flow, _status
    lib = compiler = None
    _kernel = _checksum = _flow = None
    try:
        lib, compiler = _library()
        kernels = _bind(lib)
        _self_test(kernels)
    except _Unavailable as exc:
        _status = NativeStatus(False, str(lib) if lib else None, compiler, FLAGS, str(exc))
        _LOG.warning(
            "compiled row-sum executor is off, numpy runs instead and the flow engine runs "
            "in Python: %s", exc,
        )
    else:
        _kernel, _checksum, _flow = kernels
        _status = NativeStatus(True, str(lib), compiler, FLAGS, None)
    return _status


def checksum(arrays) -> int | None:
    """64-bit checksum of the bytes of *arrays*, one pass in C without the
    GIL; ``None`` when the library is off (the caller falls back to crc32).

    Process-local: the value may differ between machines and builds, so
    it keys in-memory caches only and is never written to a file.
    """
    fn = _checksum
    if fn is None:
        return None
    digest = 0
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest = fn(array.ctypes.data, array.nbytes, digest)
    return digest


def _bind_matrix(A) -> tuple | None:
    """Vet *A*'s three arrays once and remember where they are.

    Returns ``(row_ptr, col_idx, val, &row_ptr, &col_idx, &val, nrows,
    nnz)``, or ``None`` for a matrix the C loop must not touch.  The
    entry holds the arrays themselves: numpy refuses to resize an array
    somebody else references, so the addresses stay good for as long as
    the entry does, and :func:`rowsums` uses it only while ``A`` still
    holds those very objects.
    """
    row_ptr, col_idx, val = A.row_ptr, A.col_idx, A.val
    if (
        row_ptr.dtype != _I8 or col_idx.dtype != _I8 or val.dtype != _F8
        or row_ptr.ndim != 1 or col_idx.ndim != 1 or val.shape != col_idx.shape
    ):
        return None
    try:
        handle = (
            row_ptr, col_idx, val, _address(row_ptr), _address(col_idx), _address(val),
            row_ptr.size - 1, col_idx.size,
        )
    except (TypeError, ValueError):  # read-only, strided or empty
        return None
    key = id(A)
    if key not in _handles:
        weakref.finalize(A, _handles.pop, key, None)
    _handles[key] = handle
    return handle


def _out_of_range(row: int, row_ptr, col_idx, ncols: int) -> IndexError:
    lo, hi = int(row_ptr[row]), int(row_ptr[row + 1])
    if not 0 <= lo <= hi <= col_idx.size:
        return IndexError(
            f"row {row}: row_ptr extent [{lo}, {hi}) is outside the {col_idx.size} "
            f"stored entries"
        )
    cols = col_idx[lo:hi]
    bad = cols[(cols < 0) | (cols >= ncols)]
    return IndexError(
        f"row {row}: column index {int(bad[0])} is out of range for {ncols} columns"
    )


def rowsums(A, x, out, add: bool) -> bool:
    """``out (+)= A @ x`` row sums in C; ``False`` = not taken.

    ``x`` is a row-major ``(n, k)`` block (a vector's one-column view is
    the ``k = 1`` case) and ``out`` the matching ``(nrows, k)`` array.
    ``False`` leaves ``out`` untouched and the caller runs the numpy
    executor, which computes the same bits.
    """
    fn = _kernel
    if fn is None:
        return False
    handle = _handles.get(id(A))
    if (
        handle is None or handle[0] is not A.row_ptr
        or handle[1] is not A.col_idx or handle[2] is not A.val
    ):
        handle = _bind_matrix(A)
        if handle is None:
            return False
    nrows = handle[6]
    if x.dtype != _F8 or out.dtype != _F8 or x.ndim != 2:
        return False
    k = x.shape[1]
    if out.shape != (nrows, k):
        return False
    try:
        code = fn(
            nrows, handle[3], handle[4], handle[5], handle[7],
            _address(x), x.shape[0], k, _address(out), add,
        )
    except (TypeError, ValueError):  # read-only, strided or empty operand
        return False
    if code >= 0:
        raise _out_of_range(code, handle[0], handle[1], x.shape[0])
    return code == -1
