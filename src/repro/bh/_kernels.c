/* The force kernels of repro.bh.interaction_lists: the point-mass
 * cluster pass and the particle-particle (P2P) pass.  Each call adds
 * its terms into out itself, force columns (d, .) or potentials (.),
 * for d = 2 or 3.  Every array but the masses and the index arrays
 * (contiguous) is read, and out written, through its element strides.
 *
 * The order of every floating-point operation is fixed, and restated
 * by tests/oracles/kernels.py, which must agree bit for bit.
 *
 * point_masses: n (node, target) pairs, the node's COM a point mass
 * (point_masses_reference, added by np.add.at):
 *
 *   dv   = target - com[node], per coordinate
 *   r2   = ((dx*dx + dz*dz) + dy*dy) + soft2  (dx*dx + dy*dy in 2-D:
 *          repro.bh.mac.sq_norm's pairing)
 *   inv  = r2 == 0 ? 0 : 1 / sqrt(r2)
 *   c    = dv * ((mass * ((inv*inv)*inv)) * neg_g)  (force)
 *          (neg_g * mass) * inv                     (potential)
 *   out[:, tgt[i]] += c                   (in list order)
 *
 * p2p_group: one leaf-size group, its rows in visits: rows[v] rows
 * against the ns sources from starts[v] on (p2p_group_reference):
 *
 *   dv   = target - source, per coordinate
 *   r2   = ((dx*dx + dy*dy) + dz*dz) + soft2
 *   inv  = r2 == 0 ? 0 : 1 / sqrt(r2)
 *   w    = ((inv*inv)*inv) * mass         (force; inv * mass: potential)
 *   c    = dv * w                         (force; w: potential)
 *   row  = (sequential fold of c over j, assigned at j = 0) * scale
 *   out[:, tgt[i]] += row                 (in the group's row order)
 *
 * mass is left out (not multiplied by 1) when the sources' masses are
 * uniform and folded into scale.
 *
 * The adds into out are np.add.at's on the terms or rows, so a target
 * repeated in a call sums in list order.
 *
 * Build flags matter: no -ffast-math, and -ffp-contract=off, or gcc
 * fuses multiply-adds (it does by default on aarch64) and the bits
 * change.  No -march: the same bits on every x86-64.
 *
 * Loop order: the cluster pass gathers BLOCK pairs' offsets and masses,
 * computes their terms as independent lanes, then adds them in order.
 * The P2P pass, for each visit, runs sources j outer and the visit's
 * rows as the inner lanes, so the inner loop is independent per row
 * and vectorises; a visit's target coordinates are gathered once per
 * block of rows.
 */

#include <math.h>
#include <stdint.h>

#define BLOCK 256           /* pairs, or rows of one visit, held in lanes */

typedef int64_t idx_t;

struct group {
    const idx_t *tgt;               /* target column of each row */
    const idx_t *starts, *rows;     /* (nvisits,) */
    idx_t nvisits, ns;
    const double *tp;               /* targets (d, .), element strides */
    idx_t tp_s0, tp_s1;
    const double *sp;               /* sources (d, .) */
    idx_t sp_s0, sp_s1;
    const double *sm;               /* masses, contiguous; NULL: uniform */
    double soft2, scale;
    double *out;                    /* (d, .) or (.), element strides */
    idx_t out_s0, out_s1;
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

/* One source against the nb rows of a block: the lanes of the fold,
 * assigned when the source is a visit's first. */
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

/* Every visit of the group, BLOCK rows of a visit at a time. */
static inline __attribute__((always_inline)) void
group_pass(const struct group *g, int d, int force, int has_mass)
{
    double tb[3][BLOCK], acc[3][BLOCK];
    const double soft2 = g->soft2, scale = g->scale;
    idx_t row = 0;
    for (idx_t v = 0; v < g->nvisits; row += g->rows[v], v++) {
        idx_t s0 = g->starts[v], len = g->rows[v];
        for (idx_t b = 0; b < len; b += BLOCK) {
            idx_t nb = len - b < BLOCK ? len - b : BLOCK;
            const idx_t *tgt = g->tgt + row + b;
            for (int q = 0; q < d; q++)
                for (idx_t i = 0; i < nb; i++)
                    tb[q][i] = g->tp[q * g->tp_s0 + tgt[i] * g->tp_s1];
            for (idx_t j = 0; j < g->ns; j++) {
                double sx[3], mass = g->sm ? g->sm[s0 + j] : 1.0;
                for (int q = 0; q < d; q++)
                    sx[q] = g->sp[q * g->sp_s0 + (s0 + j) * g->sp_s1];
                if (j == 0)
                    lanes(acc, tb, nb, sx, mass, soft2, d, force,
                          has_mass, 1);
                else
                    lanes(acc, tb, nb, sx, mass, soft2, d, force,
                          has_mass, 0);
            }
            for (idx_t i = 0; i < nb; i++)
                for (int q = 0; q < (force ? d : 1); q++)
                    g->out[q * g->out_s0 + tgt[i] * g->out_s1]
                        += acc[q][i] * scale;
        }
    }
}

/* One specialisation per (d, force, per-source masses), so the inner
 * loop carries no branch on them. */
#define GROUP(D, F)                                                     \
    do {                                                                \
        if (g.sm) group_pass(&g, D, F, 1); else group_pass(&g, D, F, 0); \
    } while (0)

int
p2p_group(double *out, idx_t out_s0, idx_t out_s1, const idx_t *tgt,
          const idx_t *starts, const idx_t *rows, idx_t nvisits, idx_t ns,
          int d, const double *tp, idx_t tp_s0, idx_t tp_s1,
          const double *sp, idx_t sp_s0, idx_t sp_s1, const double *sm,
          int force, double soft2, double scale)
{
    struct group g = {tgt, starts, rows, nvisits, ns, tp, tp_s0, tp_s1,
                      sp, sp_s0, sp_s1, sm, soft2, scale, out,
                      out_s0, out_s1};
    if (d != 2 && d != 3)
        return -2;
    if (ns < 1)
        return 0;                   /* no sources: nothing to add */
    if (d == 3) {
        if (force) GROUP(3, 1); else GROUP(3, 0);
    } else {
        if (force) GROUP(2, 1); else GROUP(2, 0);
    }
    return 0;
}

struct cluster {
    const idx_t *node, *tgt;        /* (n,) pairs */
    idx_t n;
    const double *tp;               /* targets (d, .), element strides */
    idx_t tp_s0, tp_s1;
    const double *com;              /* COMs (., d) */
    idx_t com_s0, com_s1;
    const double *mass;             /* per node, contiguous */
    double soft2, neg_g;
    double *out;                    /* (d, .) or (.), element strides */
    idx_t out_s0, out_s1;
};

/* Every pair, BLOCK at a time: gather, terms as lanes (the zero guard
 * is p2p's branch-free one), then the adds in list order. */
static inline __attribute__((always_inline)) void
cluster_pass(const struct cluster *c, int d, int force)
{
    double dv[3][BLOCK], m[BLOCK];
    const double soft2 = c->soft2, neg_g = c->neg_g;
    for (idx_t b = 0; b < c->n; b += BLOCK) {
        idx_t nb = c->n - b < BLOCK ? c->n - b : BLOCK;
        const idx_t *node = c->node + b, *tgt = c->tgt + b;
        for (idx_t i = 0; i < nb; i++) {
            const double *t = c->tp + tgt[i] * c->tp_s1;
            const double *x = c->com + node[i] * c->com_s0;
            for (int q = 0; q < d; q++)
                dv[q][i] = t[q * c->tp_s0] - x[q * c->com_s1];
            m[i] = c->mass[node[i]];
        }
        for (idx_t i = 0; i < nb; i++) {
            double r2, z, inv, w;
            r2 = dv[0][i] * dv[0][i];
            if (d == 3)
                r2 = r2 + dv[2][i] * dv[2][i];
            r2 = r2 + dv[1][i] * dv[1][i];
            r2 = r2 + soft2;
            z = r2 == 0.0;
            inv = (1.0 / sqrt(r2 + z)) * (1.0 - z);
            if (force) {
                w = (m[i] * ((inv * inv) * inv)) * neg_g;
                for (int q = 0; q < d; q++)
                    dv[q][i] = dv[q][i] * w;
            } else {
                dv[0][i] = (neg_g * m[i]) * inv;
            }
        }
        for (idx_t i = 0; i < nb; i++)
            for (int q = 0; q < (force ? d : 1); q++)
                c->out[q * c->out_s0 + tgt[i] * c->out_s1] += dv[q][i];
    }
}

int
point_masses(double *out, idx_t out_s0, idx_t out_s1, const idx_t *node,
             const idx_t *tgt, idx_t n, int d, const double *tp,
             idx_t tp_s0, idx_t tp_s1, const double *com, idx_t com_s0,
             idx_t com_s1, const double *mass, int force, double soft2,
             double neg_g)
{
    struct cluster c = {node, tgt, n, tp, tp_s0, tp_s1, com, com_s0,
                        com_s1, mass, soft2, neg_g, out, out_s0, out_s1};
    if (d != 2 && d != 3)
        return -2;
    if (d == 3) {
        if (force) cluster_pass(&c, 3, 1); else cluster_pass(&c, 3, 0);
    } else {
        if (force) cluster_pass(&c, 2, 1); else cluster_pass(&c, 2, 0);
    }
    return 0;
}
