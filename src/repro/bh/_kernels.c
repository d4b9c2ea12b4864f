/* The particle-particle (P2P) chunk of repro.bh.interaction_lists.
 *
 * One call computes a chunk's per-row contributions: force columns
 * (d, m) or potentials (m,), for d = 2 or 3, before the caller's
 * bincount scatter.  The rows come in runs (a leaf visit, or the part
 * of one the chunk holds): runs[v] rows against the ns sources from
 * starts[v] on.
 *
 * Every value is bitwise equal to the numpy chunk it replaced (kept as
 * tests/oracles/kernels.py::p2p_chunk_reference), which fixes the order
 * of every floating-point operation:
 *
 *   dv   = target - source, per coordinate
 *   r2   = ((dx*dx + dy*dy) + dz*dz) + soft2
 *   inv  = r2 == 0 ? 0 : 1 / sqrt(r2)
 *   w    = ((inv*inv)*inv) * mass         (force; inv * mass: potential)
 *   c    = dv * w                         (force; w: potential)
 *   out  = (fold of c over j) * scale
 *
 * mass is left out (not multiplied by 1) when the sources' masses are
 * uniform and folded into scale.  The fold over the ns sources is
 * numpy's add.reduce over the source axis: a sequential left fold
 * assigned at j = 0 when the chunk has two rows or more, and numpy's
 * pairwise_sum when it has one (the source axis is then the contiguous
 * one and numpy reduces it as such).
 *
 * Build flags matter: no -ffast-math, and -ffp-contract=off, or gcc
 * fuses multiply-adds (it does by default on aarch64) and the bits
 * change.  No -march: the same bits on every x86-64.
 *
 * Loop order: for each run, sources j outer and the run's rows as the
 * inner lanes, so the inner loop is independent per row and vectorises;
 * a run's target coordinates are gathered once per block of rows.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define BLOCK 256           /* rows of one run held in the lane buffers */

typedef int64_t idx_t;

struct chunk {
    idx_t m;                        /* rows in the chunk */
    const idx_t *tgt;               /* (m,) target column of each row */
    const idx_t *starts, *runs;     /* (nruns,) */
    idx_t nruns, ns;
    const double *tp;               /* targets (d, .), element strides */
    idx_t tp_s0, tp_s1;
    const double *sp;               /* sources (d, .) */
    idx_t sp_s0, sp_s1;
    const double *sm;               /* source masses, NULL: uniform */
    idx_t sm_s;
    double soft2, scale;
    double *out;                    /* (d, m) or (m,), C-contiguous */
};

/* The term of one source (coordinates sx, mass) at target t: force
 * components c[0 .. d) or the potential c[0].  The zero guard is
 * arithmetic, not a branch, so the caller's lane loop vectorises:
 * r2 + z is r2 and inv * (1 - z) is inv unless r2 == 0, where inv
 * becomes 1 * 0. */
static inline __attribute__((always_inline)) void
term(const double *t, const double *sx, double mass, double soft2, int d,
     int force, int has_mass, double *c)
{
    double dv[3], r2, z, inv, w;
    for (int q = 0; q < d; q++)
        dv[q] = t[q] - sx[q];
    r2 = dv[0] * dv[0];
    for (int q = 1; q < d; q++)
        r2 = r2 + dv[q] * dv[q];
    r2 = r2 + soft2;
    z = r2 == 0.0;
    inv = (1.0 / sqrt(r2 + z)) * (1.0 - z);
    w = force ? (inv * inv) * inv : inv;
    if (has_mass)
        w = w * mass;
    for (int q = 0; q < (force ? d : 1); q++)
        c[q] = force ? dv[q] * w : w;
}

/* Source s's coordinates and mass (1 when uniform, never applied). */
static inline __attribute__((always_inline)) double
source(const struct chunk *k, idx_t s, int d, double *sx)
{
    for (int q = 0; q < d; q++)
        sx[q] = k->sp[q * k->sp_s0 + s * k->sp_s1];
    return k->sm ? k->sm[s * k->sm_s] : 1.0;
}

/* numpy's pairwise_sum (PW_BLOCKSIZE 128) over a[0 .. n), stride st. */
static double
pairwise(const double *a, idx_t n, idx_t st)
{
    if (n < 8) {
        double res = 0.0;
        for (idx_t i = 0; i < n; i++)
            res += a[i * st];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        idx_t i;
        for (int q = 0; q < 8; q++)
            r[q] = a[q * st];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int q = 0; q < 8; q++)
                r[q] += a[(i + q) * st];
        res = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * st];
        return res;
    }
    idx_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2, st) + pairwise(a + n2 * st, n - n2, st);
}

/* A one-row chunk: every term, then numpy's pairwise fold of each
 * component.  Returns -1 when the term buffer cannot be allocated. */
static int
one_row(const struct chunk *k, int d, int force)
{
    int nc = force ? d : 1;
    double t[3], sx[3], *c = malloc(sizeof(double) * (size_t)(nc * k->ns));
    if (!c)
        return -1;
    for (int q = 0; q < d; q++)
        t[q] = k->tp[q * k->tp_s0 + k->tgt[0] * k->tp_s1];
    for (idx_t j = 0; j < k->ns; j++) {
        double mass = source(k, k->starts[0] + j, d, sx);
        term(t, sx, mass, k->soft2, d, force, k->sm != NULL, c + j * nc);
    }
    for (int q = 0; q < nc; q++)
        k->out[q] = pairwise(c + q, k->ns, nc) * k->scale;
    free(c);
    return 0;
}

/* One source against the nb rows of a block: the lanes of the fold,
 * assigned when the source is a run's first. */
static inline __attribute__((always_inline)) void
lanes(double acc[3][BLOCK], double tb[3][BLOCK], idx_t nb,
      const double *sx, double mass, double soft2, int d, int force,
      int has_mass, int first)
{
    for (idx_t i = 0; i < nb; i++) {
        double t[3], c[3];
        for (int q = 0; q < d; q++)
            t[q] = tb[q][i];
        term(t, sx, mass, soft2, d, force, has_mass, c);
        for (int q = 0; q < (force ? d : 1); q++)
            acc[q][i] = first ? c[q] : acc[q][i] + c[q];
    }
}

/* Every run of the chunk, BLOCK rows of a run at a time. */
static inline __attribute__((always_inline)) void
runs_pass(const struct chunk *k, int d, int force, int has_mass)
{
    double tb[3][BLOCK], acc[3][BLOCK];
    const double soft2 = k->soft2, scale = k->scale;
    idx_t row = 0;
    for (idx_t v = 0; v < k->nruns; row += k->runs[v], v++) {
        idx_t s0 = k->starts[v], len = k->runs[v];
        for (idx_t b = 0; b < len; b += BLOCK) {
            idx_t nb = len - b < BLOCK ? len - b : BLOCK;
            const idx_t *tgt = k->tgt + row + b;
            for (int q = 0; q < d; q++)
                for (idx_t i = 0; i < nb; i++)
                    tb[q][i] = k->tp[q * k->tp_s0 + tgt[i] * k->tp_s1];
            for (idx_t j = 0; j < k->ns; j++) {
                double sx[3], mass = source(k, s0 + j, d, sx);
                if (j == 0)
                    lanes(acc, tb, nb, sx, mass, soft2, d, force,
                          has_mass, 1);
                else
                    lanes(acc, tb, nb, sx, mass, soft2, d, force,
                          has_mass, 0);
            }
            for (int q = 0; q < (force ? d : 1); q++)
                for (idx_t i = 0; i < nb; i++)
                    k->out[q * k->m + row + b + i] = acc[q][i] * scale;
        }
    }
}

/* One specialisation per (d, force, per-source masses), so the inner
 * loop carries no branch on them. */
#define RUNS(D, F)                                                      \
    do {                                                                \
        if (k.sm) runs_pass(&k, D, F, 1); else runs_pass(&k, D, F, 0);  \
    } while (0)

int
p2p_chunk(double *out, idx_t m, const idx_t *tgt, const idx_t *starts,
          const idx_t *runs, idx_t nruns, idx_t ns, int d,
          const double *tp, idx_t tp_s0, idx_t tp_s1,
          const double *sp, idx_t sp_s0, idx_t sp_s1,
          const double *sm, idx_t sm_s, int force, double soft2,
          double scale)
{
    struct chunk k = {m, tgt, starts, runs, nruns, ns, tp, tp_s0, tp_s1,
                      sp, sp_s0, sp_s1, sm, sm_s, soft2, scale, out};
    if (d != 2 && d != 3)
        return -2;
    if (m == 0)
        return 0;
    if (m == 1)
        return one_row(&k, d, force);
    if (d == 3) {
        if (force) RUNS(3, 1); else RUNS(3, 0);
    } else {
        if (force) RUNS(2, 1); else RUNS(2, 0);
    }
    return 0;
}
