/* The force kernels of repro.bh.interaction_lists: the walk that
 * decides and evaluates, and the point-mass cluster and
 * particle-particle (P2P) passes it and data shipping run.  Each call
 * adds its terms into out itself, force columns (d, .) or potentials
 * (.), for d = 2 or 3.  Every array but the masses and the index arrays
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
 * walk: targets lo .. hi-1, a batched depth-first walk from the root
 * (fused_walk_reference).  A stack holds (node, target list) entries,
 * the lists in one index arena; popping an entry frees every list
 * above its own, so the arena holds at most one list per level of the
 * current path, m * levels indices.  Per popped node, by class:
 *
 *   empty    nothing
 *   remote   record (node, its targets)
 *   leaf     one P2P visit of its targets against its ns sources
 *            (p2p_group's order above); +ns P2P sources per target
 *   internal per target, in list order:
 *              dv   = target - com[node], per coordinate
 *              dist = sqrt((dx*dx + dz*dz) + dy*dy)  (sq_norm's pairing)
 *              ok   = 2h < alpha * dist
 *              ok   = 0 if ok, 2h < alpha * reach, dist <= reach and
 *                     |target - center| < h in every coordinate
 *            +1 MAC test per target; each ok target +1 cluster and its
 *            point-mass term (point_masses' order above) added at once,
 *            or, without point masses, (node, target) emitted; the
 *            rest, in order, form the list pushed with children 0, 1,
 *            ..., so the last child is walked first.
 *
 * So a target sums its terms in visit order, whatever else the batch
 * holds.  Per-node counts add the accepted targets of a node and m * ns
 * at a leaf.  Emitted pairs fill a buffer: before a node whose targets
 * might not fit, the call returns 1 with its state kept, the caller
 * drains the pairs and calls again.
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
 * block of rows.  The walk runs a node's MAC on BLOCK targets as lanes,
 * then their point-mass terms as the cluster pass does.
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
 * loop carries no branch on them.  Not inlined: the walk calls it once
 * per leaf visit. */
#define GROUP(D, F)                                                     \
    do {                                                                \
        if (g->sm) group_pass(g, D, F, 1); else group_pass(g, D, F, 0); \
    } while (0)

static __attribute__((noinline)) void
group_run(const struct group *g, int d, int force)
{
    if (d == 3) {
        if (force) GROUP(3, 1); else GROUP(3, 0);
    } else {
        if (force) GROUP(2, 1); else GROUP(2, 0);
    }
}

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
    if (ns >= 1)                    /* no sources: nothing to add */
        group_run(&g, d, force);
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

/* The point-mass terms of nb pairs held as lanes: dv[q][i] is target
 * minus COM on entry and the term on return (force components, or the
 * potential in dv[0]); the zero guard is p2p's branch-free one. */
static inline __attribute__((always_inline)) void
pm_lanes(double dv[3][BLOCK], const double *m, idx_t nb, double soft2,
         double neg_g, int d, int force)
{
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
}

/* Every pair, BLOCK at a time: gather, terms as lanes, then the adds in
 * list order. */
static inline __attribute__((always_inline)) void
cluster_pass(const struct cluster *c, int d, int force)
{
    double dv[3][BLOCK], m[BLOCK];
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
        pm_lanes(dv, m, nb, c->soft2, c->neg_g, d, force);
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

/* The walk's argument block, typed field for field by
 * repro.bh.native.Walk.  Arrays without strides are contiguous. */
struct walk {
    /* the tree: node classes (0 internal, 1 leaf, 2 remote, 3 empty),
     * children (nnodes, nchild), MAC data, leaf slices of the sources */
    idx_t nnodes, nchild, d;
    const int8_t *cls;
    const idx_t *children;
    const double *com;
    idx_t com_s0, com_s1;
    const double *center;
    idx_t center_s0, center_s1;
    const double *half, *reach;
    const idx_t *start, *end;
    double alpha;
    /* the targets [lo, hi) of tp (d, .) */
    const double *tp;
    idx_t tp_s0, tp_s1, lo, hi;
    /* the far field: point masses, or NULL pm_com to emit the pairs */
    const double *pm_com;
    idx_t pm_com_s0, pm_com_s1;
    const double *pm_mass;
    double pm_soft2, neg_g;
    /* the near field: sources (d, nsrc) (NULL: none), masses or NULL */
    const double *sp;
    idx_t sp_s0, sp_s1;
    const double *sm;
    idx_t nsrc;
    double soft2, scale;
    idx_t force;
    double *out;
    idx_t out_s0, out_s1;
    /* counts: per target (3, .) rows MAC tests, clusters, P2P sources;
     * per node (NULL: not counted); totals */
    idx_t *counts;
    idx_t counts_s0;
    idx_t *node_count;
    idx_t mac_tests, clusters, p2p;
    /* emitted: cluster pairs (point masses absent), remote visits */
    idx_t *pair_node, *pair_tgt;
    idx_t npairs, pair_tgt_cap;
    idx_t *rem_node, *rem_len, *rem_tgt;
    idx_t nrem, nrem_tgt, rem_node_cap, rem_tgt_cap;
    /* the walk's state: target index arena, stack of (node, off, len)
     * triples; every cap counts indices */
    idx_t *arena;
    idx_t arena_cap;
    idx_t *stack;
    idx_t stack_cap, nstack, started;
};

/* The tree arrays the walk follows, checked once per walk: O(nnodes). */
static int
check_tree(const struct walk *w)
{
    for (idx_t n = 0; n < w->nnodes; n++) {
        int c = w->cls[n];
        if (c < 0 || c > 3)
            return -1;
        for (idx_t k = 0; k < w->nchild; k++) {
            idx_t ch = w->children[n * w->nchild + k];
            if (ch < -1 || ch >= w->nnodes)
                return -1;
        }
        if (c == 1 && w->sp && (w->start[n] < 0 || w->end[n] < w->start[n]
                                || w->end[n] > w->nsrc))
            return -1;
    }
    return 0;
}

/* One opened node: the MAC on its m targets ti, BLOCK at a time; the
 * accepted get their point-mass term (or are emitted), the rest are
 * written to near, in order.  Returns how many are near. */
static inline __attribute__((always_inline)) idx_t
open_node(struct walk *w, idx_t node, const idx_t *ti, idx_t m,
          idx_t *near, int d, int force)
{
    double dist[BLOCK], dv[3][BLOCK], pm[BLOCK];
    idx_t acc[BLOCK], nnear = 0, nacc = 0;
    const double *x = w->com + node * w->com_s0;
    const double *c = w->center + node * w->center_s0;
    const double h = w->half[node], r = w->reach[node];
    const double twoh = 2.0 * h, alpha = w->alpha;
    const int gate = twoh < alpha * r;
    idx_t *mac = w->counts, *ncl = w->counts + w->counts_s0;
    for (idx_t b = 0; b < m; b += BLOCK) {
        idx_t nb = m - b < BLOCK ? m - b : BLOCK, na = 0;
        const idx_t *t = ti + b;
        for (idx_t i = 0; i < nb; i++) {
            double e[3], s;
            for (int q = 0; q < d; q++)
                e[q] = w->tp[q * w->tp_s0 + t[i] * w->tp_s1]
                       - x[q * w->com_s1];
            s = e[0] * e[0];
            if (d == 3)
                s = s + e[2] * e[2];
            s = s + e[1] * e[1];
            dist[i] = sqrt(s);
        }
        for (idx_t i = 0; i < nb; i++) {
            int ok = twoh < alpha * dist[i];
            if (ok && gate && dist[i] <= r) {
                int inside = 1;
                for (int q = 0; q < d; q++)
                    inside &= fabs(w->tp[q * w->tp_s0 + t[i] * w->tp_s1]
                                   - c[q * w->center_s1]) < h;
                ok = !inside;
            }
            mac[t[i]] += 1;
            if (ok) {
                ncl[t[i]] += 1;
                acc[na++] = t[i];
            } else {
                near[nnear++] = t[i];
            }
        }
        nacc += na;
        if (!na)
            continue;
        if (!w->pm_com) {
            for (idx_t i = 0; i < na; i++) {
                w->pair_node[w->npairs] = node;
                w->pair_tgt[w->npairs++] = acc[i];
            }
            continue;
        }
        {
            const double *px = w->pm_com + node * w->pm_com_s0;
            for (idx_t i = 0; i < na; i++) {
                for (int q = 0; q < d; q++)
                    dv[q][i] = w->tp[q * w->tp_s0 + acc[i] * w->tp_s1]
                               - px[q * w->pm_com_s1];
                pm[i] = w->pm_mass[node];
            }
        }
        pm_lanes(dv, pm, na, w->pm_soft2, w->neg_g, d, force);
        for (idx_t i = 0; i < na; i++)
            for (int q = 0; q < (force ? d : 1); q++)
                w->out[q * w->out_s0 + acc[i] * w->out_s1] += dv[q][i];
    }
    w->mac_tests += m;
    w->clusters += nacc;
    if (w->node_count)
        w->node_count[node] += nacc;
    return nnear;
}

/* The batched depth-first walk from the stack as it stands. */
static inline __attribute__((always_inline)) int
walk_pass(struct walk *w, int d, int force)
{
    while (w->nstack) {
        idx_t *e = w->stack + 3 * (w->nstack - 1);
        idx_t node = e[0], off = e[1], m = e[2], top = off + m;
        const idx_t *ti = w->arena + off;
        int c = w->cls[node];
        if (c == 0 && !w->pm_com && w->npairs + m > w->pair_tgt_cap)
            return w->npairs ? 1 : -3;  /* 1: the caller drains them */
        w->nstack--;
        if (c == 3)
            continue;
        if (c == 2) {
            if (w->nrem >= w->rem_node_cap
                || w->nrem_tgt + m > w->rem_tgt_cap)
                return -3;
            w->rem_node[w->nrem] = node;
            w->rem_len[w->nrem++] = m;
            for (idx_t i = 0; i < m; i++)
                w->rem_tgt[w->nrem_tgt++] = ti[i];
            continue;
        }
        if (c == 1) {
            idx_t ns = w->end[node] - w->start[node];
            idx_t *nsrc = w->counts + 2 * w->counts_s0;
            struct group g = {ti, w->start + node, &m, 1, ns, w->tp,
                              w->tp_s0, w->tp_s1, w->sp, w->sp_s0,
                              w->sp_s1, w->sm, w->soft2, w->scale, w->out,
                              w->out_s0, w->out_s1};
            if (!w->sp)
                return -4;
            group_run(&g, d, force);
            for (idx_t i = 0; i < m; i++)
                nsrc[ti[i]] += ns;
            w->p2p += m * ns;
            if (w->node_count)
                w->node_count[node] += m * ns;
            continue;
        }
        if (top + m > w->arena_cap)
            return -3;
        m = open_node(w, node, ti, m, w->arena + top, d, force);
        if (!m)
            continue;
        for (idx_t k = 0; k < w->nchild; k++) {
            idx_t ch = w->children[node * w->nchild + k];
            if (ch == -1)
                continue;
            if (3 * (w->nstack + 1) > w->stack_cap)
                return -3;
            e = w->stack + 3 * w->nstack++;
            e[0] = ch;
            e[1] = top;
            e[2] = m;
        }
    }
    return 0;
}

/* 0: walked; 1: the pair buffer is full, drain it and call again;
 * -1: a tree array out of range; -2: d not 2 or 3; -3: a buffer would
 * overrun; -4: a leaf with no sources. */
int
walk(struct walk *w)
{
    if (w->d != 2 && w->d != 3)
        return -2;
    if (!w->started) {
        int rc = check_tree(w);
        if (rc)
            return rc;
        w->started = 1;
        if (w->nnodes == 0 || w->hi <= w->lo)
            return 0;
        if (w->hi - w->lo > w->arena_cap || w->stack_cap < 3)
            return -3;
        for (idx_t i = w->lo; i < w->hi; i++)
            w->arena[i - w->lo] = i;
        w->stack[0] = 0;            /* the root */
        w->stack[1] = 0;
        w->stack[2] = w->hi - w->lo;
        w->nstack = 1;
    }
    if (w->d == 3)
        return w->force ? walk_pass(w, 3, 1) : walk_pass(w, 3, 0);
    return w->force ? walk_pass(w, 2, 1) : walk_pass(w, 2, 0);
}
