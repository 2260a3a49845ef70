"""Exact inference on thin components: tempered marginals, max-marginals,
decoding with tie detection, and Gaussian marginal information forms.

Each discrete component gets a junction tree from greedy min-fill
elimination. Messages are cached per directed tree edge and recomputed
lazily, so a potential update followed by a query only recomputes messages
on the directed path between the touched clique and the queried one.

Gaussian components are dense: a marginal information form is one Schur
complement through a Cholesky factor of the eliminated block. A
component's positive-definiteness check, mean, covariance diagonal and
value all come from one factor of its active block (`factor_active`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtri

from .models import NotPositiveDefiniteError

TAU_FLOOR = 1e-9
# A vertex whose two max-marginal values differ by less than this is tied.
TIE_TOL = 1e-6


def neighbour_sets(n: int, hyperedges) -> list[set[int]]:
    """Adjacency of `n` vertices in which each hyperedge is a clique."""
    nbrs = [set() for _ in range(n)]
    for e in hyperedges:
        for a in e:
            nbrs[a].update(b for b in e if b != a)
    return nbrs


def min_fill_order(nbrs: list[set[int]]):
    """Greedy min-fill elimination.

    Returns (order, treewidth estimate, cliques), where cliques[i] is
    (order[i], *its neighbours when eliminated).
    """
    n = len(nbrs)
    adj = [set(s) for s in nbrs]
    alive = set(range(n))
    order = []
    cliques = []
    width = 0
    while alive:
        best, best_fill = None, None
        for v in sorted(alive):
            nb = adj[v]
            fill = 0
            nb_list = sorted(nb)
            for i, a in enumerate(nb_list):
                for c in nb_list[i + 1 :]:
                    if c not in adj[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best, best_fill = v, fill
        v = best
        nb = sorted(adj[v])
        cliques.append((v, *nb))
        width = max(width, len(nb))
        for i, a in enumerate(nb):
            for c in nb[i + 1 :]:
                adj[a].add(c)
                adj[c].add(a)
        for a in nb:
            adj[a].discard(v)
        alive.remove(v)
        adj[v] = set()
        order.append(v)
    return order, width, cliques


def _build_junction_tree(n_local: int, hyperedges: list[tuple[int, ...]]):
    """Elimination cliques linked by the running-intersection property.

    Returns (cliques, nbrs, seps, clique_of_edge, clique_of_vertex).
    """
    order, _, elim = min_fill_order(neighbour_sets(n_local, hyperedges))
    pos = {v: i for i, v in enumerate(order)}
    elim_clique = [tuple(sorted(c)) for c in elim]
    # A hyperedge belongs to the clique of its first eliminated vertex.
    assigned = [min(pos[v] for v in e) for e in hyperedges]

    # Parent of clique i: the clique of the next-eliminated vertex in C_i - v_i.
    parent = [None] * len(order)
    for i, v in enumerate(order):
        rest = [u for u in elim_clique[i] if u != v]
        if rest:
            nxt = min(rest, key=lambda u: pos[u])
            parent[i] = pos[nxt]

    # Absorb non-maximal cliques into their parent.
    merged_into = list(range(len(order)))

    def resolve(i):
        while merged_into[i] != i:
            i = merged_into[i]
        return i

    for i in range(len(order)):
        p = parent[i]
        if p is not None and set(elim_clique[i]) <= set(elim_clique[resolve(p)]):
            merged_into[i] = resolve(p)

    keep = sorted({resolve(i) for i in range(len(order))})
    newid = {old: k for k, old in enumerate(keep)}
    cliques = [elim_clique[old] for old in keep]
    tree_nbrs = [set() for _ in cliques]
    for i in range(len(order)):
        p = parent[i]
        if p is None:
            continue
        a, b = newid[resolve(i)], newid[resolve(p)]
        if a != b:
            tree_nbrs[a].add(b)
            tree_nbrs[b].add(a)
    seps = {}
    for a in range(len(cliques)):
        for b in tree_nbrs[a]:
            seps[(a, b)] = tuple(sorted(set(cliques[a]) & set(cliques[b])))
    clique_of_edge = [newid[resolve(s)] for s in assigned]
    clique_of_vertex = [None] * n_local
    for ci, c in enumerate(cliques):
        for v in c:
            if clique_of_vertex[v] is None:
                clique_of_vertex[v] = ci
    return (
        cliques,
        [sorted(s) for s in tree_nbrs],
        seps,
        clique_of_edge,
        clique_of_vertex,
    )


def _expand(table: np.ndarray, src_vars, dst_vars) -> np.ndarray:
    """Broadcast a table over src_vars to the axis layout of dst_vars."""
    pos = {v: i for i, v in enumerate(dst_vars)}
    order = sorted(range(len(src_vars)), key=lambda k: pos[src_vars[k]])
    t = np.transpose(table, order)
    src = set(src_vars)
    shape = tuple(2 if v in src else 1 for v in dst_vars)
    return t.reshape(shape)


def _lse(a: np.ndarray, axis) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))
    return out


def _reduce(table: np.ndarray, src_vars, keep_vars, mode: str) -> np.ndarray:
    keep = set(keep_vars)
    axes = tuple(i for i, v in enumerate(src_vars) if v not in keep)
    if axes:
        table = _lse(table, axes) if mode == "sum" else np.max(table, axis=axes)
    left = [v for v in src_vars if v in keep]
    perm = [left.index(v) for v in keep_vars]
    return np.transpose(table, perm) if perm != list(range(len(perm))) else table


class SubgraphEngine:
    """Exact inference state for one thin component.

    Holds the component's replica tables (aliased with the augmented
    model), its junction tree, and per-semiring message caches. The engine
    is single-writer: updates go through add_to_table.
    """

    def __init__(self, n_local: int, entries, aug_vertices=None):
        # entries: iterable of (rid, local vertex tuple, table array)
        self.n_local = n_local
        self.aug_vertices = aug_vertices
        self.tables: dict[int, np.ndarray] = {}
        self.edge_vars: dict[int, tuple[int, ...]] = {}
        hyperedges = []
        self._rids = []
        for rid, verts, table in entries:
            self.tables[rid] = table
            self.edge_vars[rid] = tuple(verts)
            hyperedges.append(tuple(sorted(verts)))
            self._rids.append(rid)
        (
            self.cliques,
            self.nbrs,
            self.seps,
            clique_of_edge,
            self.clique_of_vertex,
        ) = _build_junction_tree(n_local, hyperedges)
        self.owner = {rid: clique_of_edge[i] for i, rid in enumerate(self._rids)}
        self._members = [[] for _ in self.cliques]
        for rid in self._rids:
            self._members[self.owner[rid]].append(rid)
        self._pots: dict[int, np.ndarray] = {}
        self._sum_msgs: dict[tuple[int, int], np.ndarray] = {}
        self._sum_tau: float | None = None
        self._max_msgs: dict[tuple[int, int], np.ndarray] = {}
        self.messages_computed = 0

    # -- potential updates --------------------------------------------------

    def add_to_table(self, rid: int, delta: np.ndarray) -> None:
        self.tables[rid] += delta
        self._touch(self.owner[rid])

    def _touch(self, cid: int) -> None:
        self._pots.pop(cid, None)
        # Drop every message directed away from cid.
        seen = {cid}
        stack = [cid]
        while stack:
            a = stack.pop()
            for b in self.nbrs[a]:
                if b in seen:
                    continue
                seen.add(b)
                self._sum_msgs.pop((a, b), None)
                self._max_msgs.pop((a, b), None)
                stack.append(b)

    def _pot(self, cid: int) -> np.ndarray:
        p = self._pots.get(cid)
        if p is None:
            cv = self.cliques[cid]
            p = np.zeros((2,) * len(cv))
            for rid in self._members[cid]:
                p = p + _expand(self.tables[rid], self.edge_vars[rid], cv)
            self._pots[cid] = p
        return p

    # -- message passing ----------------------------------------------------

    def _cache(self, mode: str, tau: float | None):
        if mode == "sum":
            if tau != self._sum_tau:
                self._sum_msgs.clear()
                self._sum_tau = tau
            return self._sum_msgs
        return self._max_msgs

    def _scaled_pot(self, cid: int, mode: str, tau: float | None) -> np.ndarray:
        p = self._pot(cid)
        return p / tau if mode == "sum" else p

    def _ensure_msgs(self, cache, targets, mode, tau):
        stack = list(targets)
        pending = []
        seen = set()
        while stack:
            a, b = stack.pop()
            if (a, b) in cache or (a, b) in seen:
                continue
            seen.add((a, b))
            pending.append((a, b))
            for k in self.nbrs[a]:
                if k != b and (k, a) not in cache:
                    stack.append((k, a))
        for a, b in reversed(pending):
            acc = self._scaled_pot(a, mode, tau)
            cv = self.cliques[a]
            for k in self.nbrs[a]:
                if k != b:
                    acc = acc + _expand(cache[(k, a)], self.seps[(k, a)], cv)
            cache[(a, b)] = _reduce(acc, cv, self.seps[(a, b)], mode)
            self.messages_computed += 1

    def _belief(self, cid: int, mode: str, tau: float | None) -> np.ndarray:
        cache = self._cache(mode, tau)
        self._ensure_msgs(cache, [(k, cid) for k in self.nbrs[cid]], mode, tau)
        acc = self._scaled_pot(cid, mode, tau)
        cv = self.cliques[cid]
        for k in self.nbrs[cid]:
            acc = acc + _expand(cache[(k, cid)], self.seps[(k, cid)], cv)
        return acc

    # -- queries ------------------------------------------------------------

    def log_partition(self, tau: float) -> float:
        """Component contribution to the smooth dual: tau * log-sum-exp(f/tau)."""
        if tau < TAU_FLOOR:
            raise ValueError(f"temperature {tau} below floor {TAU_FLOOR}")
        b = self._belief(0, "sum", tau)
        return float(tau * _lse(b, tuple(range(b.ndim))))

    def log_marginal(self, rid: int, tau: float) -> np.ndarray:
        """Normalized log marginal table of a replica edge at temperature tau."""
        if tau < TAU_FLOOR:
            raise ValueError(f"temperature {tau} below floor {TAU_FLOOR}")
        b = self._belief(self.owner[rid], "sum", tau)
        t = _reduce(b, self.cliques[self.owner[rid]], self.edge_vars[rid], "sum")
        return t - _lse(t, tuple(range(t.ndim)))

    def max_marginal(self, rid: int) -> np.ndarray:
        """Unnormalized max-marginal table of a replica edge."""
        b = self._belief(self.owner[rid], "max", None)
        return _reduce(b, self.cliques[self.owner[rid]], self.edge_vars[rid], "max")

    def vertex_max_marginal(self, v_local: int) -> np.ndarray:
        cid = self.clique_of_vertex[v_local]
        b = self._belief(cid, "max", None)
        return _reduce(b, self.cliques[cid], (v_local,), "max")

    def component_max(self) -> float:
        return float(np.max(self._belief(0, "max", None)))

    def map_assignment(self) -> np.ndarray:
        """One maximizer by max-product backtracking.

        Argmax tie-breaks take the first maximizing index, which prefers +1.
        """
        from .models import LABELS

        assign = np.zeros(self.n_local)
        b = self._belief(0, "max", None)
        idx = np.unravel_index(int(np.argmax(b)), b.shape)
        for v, i in zip(self.cliques[0], idx):
            assign[v] = LABELS[i]
        cache = self._cache("max", None)
        visited = {0}
        stack = [0]
        while stack:
            a = stack.pop()
            for c in self.nbrs[a]:
                if c in visited:
                    continue
                visited.add(c)
                cv = self.cliques[c]
                acc = self._scaled_pot(c, "max", None)
                for k in self.nbrs[c]:
                    if k != a:
                        self._ensure_msgs(cache, [(k, c)], "max", None)
                        acc = acc + _expand(cache[(k, c)], self.seps[(k, c)], cv)
                sel = tuple(
                    slice(None) if v not in self.seps[(a, c)] else int((1 - assign[v]) / 2)
                    for v in cv
                )
                sub = acc[sel]
                free = [v for v in cv if v not in self.seps[(a, c)]]
                if free:
                    idx = np.unravel_index(int(np.argmax(sub)), sub.shape)
                    for v, i in zip(free, idx):
                        assign[v] = LABELS[i]
                stack.append(c)
        return assign


def build_engines(aug) -> list[SubgraphEngine]:
    """One engine per component of a DiscreteAugmented model."""
    rmap = aug.rmap
    comps = rmap.component_vertices()
    locals_ = [dict() for _ in comps]
    for ci, verts in enumerate(comps):
        locals_[ci] = {v: i for i, v in enumerate(verts)}
    entries = [[] for _ in comps]
    for rid, e in enumerate(rmap.replica_edges):
        ci = rmap.replica_component(rid)
        entries[ci].append(
            (rid, tuple(locals_[ci][v] for v in e), aug.tables[rid])
        )
    return [
        SubgraphEngine(len(comps[ci]), entries[ci], aug_vertices=comps[ci])
        for ci in range(len(comps))
    ]


# ---------------------------------------------------------------------------
# Gaussian marginalization by dense Schur complements

# Not a cut-over: every component takes the dense path below. The
# benchmark's tracer (perfbench/tracer.py) reads this size to count Schur
# complements on wide components (`inference.schur_wide_calls`).
DENSE_LIMIT = 64


def factor_active(J, h, subset=None):
    """Cholesky factor of the active block of a component's information form.

    A variable is active when its row of J has a nonzero entry; inactive
    rows occur on summary scales before their first cross-scale update.
    Returns the active indices (within `subset` when given) and their
    lower factor in `cho_solve` form, or None when no index is active.
    Raises NotPositiveDefiniteError for a potential on an uncoupled
    variable and for an active block that is not positive definite or not
    finite.
    """
    coupled = J.any(axis=0)
    if not coupled.all():
        bad = (h != 0) & ~coupled
        if bad.any():
            raise NotPositiveDefiniteError(
                f"improper component: potential on unconstrained variable {np.flatnonzero(bad)[0]}"
            )
    if subset is None:
        idx = np.flatnonzero(coupled)
    else:
        idx = np.asarray(subset, dtype=int)
        idx = idx[coupled[idx]]
    if not idx.size:
        return idx, None
    block = J if subset is None and idx.size == J.shape[0] else J[np.ix_(idx, idx)]
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"active block not PD: {exc}") from exc
    # LAPACK may pass NaN through without failing; it reaches the diagonal.
    if not math.isfinite(L.trace()):
        raise NotPositiveDefiniteError("active block is not finite")
    return idx, (L, True)


def gaussian_marginal_info(J, h, keep, elim=None):
    """Marginal information form of `keep` after eliminating the rest.

    One dense Schur complement: a Cholesky factor of the eliminated block
    (`elim`, default every index outside `keep`) gives the corrections to
    J[keep, keep] and h[keep]. A block that fails to factor is retried
    without its inactive variables.
    """
    J = np.asarray(J, dtype=float)
    h = np.asarray(h, dtype=float)
    keep = [int(k) for k in keep]
    if elim is None:
        kept = set(keep)
        elim = [i for i in range(J.shape[0]) if i not in kept]
    if len(elim) == 0:
        return J[np.ix_(keep, keep)].copy(), h[keep].copy()
    try:
        chol = cho_factor(J[np.ix_(elim, elim)], check_finite=False)
    except np.linalg.LinAlgError:
        elim, chol = factor_active(J, h, elim)
        if chol is None:
            return J[np.ix_(keep, keep)].copy(), h[keep].copy()
    Jce = J[np.ix_(elim, keep)]
    rhs = np.concatenate([Jce, h[elim][:, None]], axis=1)
    sol = cho_solve(chol, rhs, check_finite=False)
    Jm = J[np.ix_(keep, keep)] - Jce.T @ sol[:, :-1]
    hm = h[keep] - Jce.T @ sol[:, -1]
    return 0.5 * (Jm + Jm.T), hm


# The one per-component read, and the only name behind the benchmark's
# `inference.component_solve_s` (perfbench/tracer.py), hence its name.
def gaussian_component_mean(J, h):
    """Mean, covariance diagonal and value max_x -1/2 x J x + h x = 1/2 h^T mu
    of one component, from one `factor_active` factor of its active block.

    Raises NotPositiveDefiniteError as `factor_active` does. An inactive
    variable has mean 0 and infinite variance.
    """
    idx, chol = factor_active(J, h)
    mean = np.zeros(J.shape[0])
    var = np.full(J.shape[0], np.inf)
    if chol is not None:
        mean[idx] = cho_solve(chol, h[idx], check_finite=False)
        # Sigma = L^-T L^-1, so Sigma_vv is the squared norm of column v of L^-1.
        Linv, _ = dtrtri(chol[0], lower=1)
        var[idx] = np.einsum("ij,ij->j", Linv, Linv)
    return mean, var, float(0.5 * h @ mean)
