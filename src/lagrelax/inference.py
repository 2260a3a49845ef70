"""Exact inference on thin components: tempered marginals, max-marginals,
decoding, and Gaussian marginal information forms.

Discrete components are batched by layout: the number of local vertices
plus the local vertex tuple of every replica, in rid order. A layout fixes
one junction tree, built by greedy min-fill elimination with every clique
maximal. One `SubgraphEngine` holds every component of a layout as a row
of a leading batch axis, so each query answers for all rows in a few array
operations; a component with an irregular layout is a batch of one.
Messages are cached per directed tree edge for the whole batch and
recomputed lazily, so a potential update followed by a query only
recomputes messages on the directed path between the touched clique and
the queried one. `messages_computed` counts one per batched reduction of a
clique table: a message to a neighbouring clique, or the marginal table of
a replica slot or of a vertex.

Gaussian components are dense, and every Gaussian function takes one
component or a stack of equal-size components (a leading batch axis); one
component is a stack of one. A marginal information form is one batched
Schur complement through Cholesky factors of the eliminated blocks
(`gaussian_marginal_info`). A component's positive-definiteness check,
mean, covariance diagonal and value all come from one batched factor
(`factor_active`, `gaussian_component_mean`). An inactive variable, whose
row of J is zero, is factored as a unit diagonal.
"""

from __future__ import annotations

import functools

import numpy as np

from .models import LABELS, NotPositiveDefiniteError

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
    """Maximal elimination cliques linked by the running-intersection property.

    Returns (cliques, nbrs, seps, clique_of_edge, clique_of_vertex).
    """
    order, _, elim = min_fill_order(neighbour_sets(n_local, hyperedges))
    pos = {v: i for i, v in enumerate(order)}
    members = [set(c) for c in elim]
    # A hyperedge belongs to the clique of its first eliminated vertex.
    home = [min(pos[v] for v in e) for e in hyperedges]

    # Elimination tree: clique i joins the clique of the next-eliminated
    # vertex in C_i - v_i.
    nbrs = [set() for _ in order]
    for i, v in enumerate(order):
        rest = [pos[u] for u in elim[i] if u != v]
        if rest:
            p = min(rest)
            nbrs[i].add(p)
            nbrs[p].add(i)

    # Absorb every clique that is a subset of a tree neighbour, in either
    # direction. The superset takes over the subset's other neighbours,
    # which keeps running intersection.
    into = list(range(len(order)))
    changed = True
    while changed:
        changed = False
        for i in range(len(order)):
            if into[i] != i:
                continue
            j = next((j for j in sorted(nbrs[i]) if members[i] <= members[j]), None)
            if j is None:
                continue
            into[i] = j
            for k in nbrs[i] - {j}:
                nbrs[k].discard(i)
                nbrs[k].add(j)
                nbrs[j].add(k)
            nbrs[j].discard(i)
            nbrs[i] = set()
            changed = True

    def resolve(i):
        while into[i] != i:
            i = into[i]
        return i

    keep = [i for i in range(len(order)) if into[i] == i]
    newid = {old: k for k, old in enumerate(keep)}
    cliques = [tuple(sorted(members[old])) for old in keep]
    tree_nbrs = [sorted(newid[j] for j in nbrs[old]) for old in keep]
    seps = {
        (a, b): tuple(sorted(set(cliques[a]) & set(cliques[b])))
        for a in range(len(cliques))
        for b in tree_nbrs[a]
    }
    clique_of_edge = [newid[resolve(i)] for i in home]
    clique_of_vertex = [None] * n_local
    for ci, c in enumerate(cliques):
        for v in c:
            if clique_of_vertex[v] is None:
                clique_of_vertex[v] = ci
    return cliques, tree_nbrs, seps, clique_of_edge, clique_of_vertex


# Tables carry a leading batch axis: axis 0 is the row, and axis i + 1 the
# i-th variable of the table's variable tuple.


@functools.lru_cache(maxsize=None)
def _expand_plan(src_vars, dst_vars):
    pos = {v: i for i, v in enumerate(dst_vars)}
    order = sorted(range(len(src_vars)), key=lambda k: pos[src_vars[k]])
    shape = tuple(2 if v in src_vars else 1 for v in dst_vars)
    return (0, *(k + 1 for k in order)), shape


def _expand(table: np.ndarray, src_vars, dst_vars) -> np.ndarray:
    """Broadcast batched tables over src_vars to the axis layout of dst_vars."""
    perm, shape = _expand_plan(src_vars, dst_vars)
    return np.transpose(table, perm).reshape((table.shape[0], *shape))


def _lse(a: np.ndarray, axes) -> np.ndarray:
    """log-sum-exp over `axes`, which are kept with size 1."""
    m = a.max(axis=axes, keepdims=True)
    return m + np.log(np.exp(a - m).sum(axis=axes, keepdims=True))


@functools.lru_cache(maxsize=None)
def _reduce_plan(src_vars, keep_vars):
    axes = tuple(i + 1 for i, v in enumerate(src_vars) if v not in keep_vars)
    left = [v for v in src_vars if v in keep_vars]
    perm = [left.index(v) for v in keep_vars]
    return axes, None if perm == sorted(perm) else (0, *(p + 1 for p in perm))


def _reduce(table: np.ndarray, src_vars, keep_vars, mode: str) -> np.ndarray:
    """Batched tables over src_vars, summed (log-sum-exp) or maximized down to
    keep_vars, in keep_vars order."""
    axes, perm = _reduce_plan(src_vars, keep_vars)
    if axes:
        if mode == "sum":
            table = _lse(table, axes).squeeze(axis=axes)
        else:
            table = table.max(axis=axes)
    return table if perm is None else np.transpose(table, perm)


class SubgraphEngine:
    """Exact inference for every thin component with one local layout.

    A layout is `n_local` plus the local vertex tuple of every replica, in
    rid order; it fixes one junction tree. Each component is one row of a
    leading batch axis: row b is component `components[b]`, its local
    vertex i is augmented vertex `aug_vertices[b, i]`, and its replica in
    slot s is `rids[b, s]`, with local vertices `edges[s]`. `tables[s]`
    stacks slot s's tables over the rows, and the augmented model's table
    of each replica is a view of its row. Potentials, messages and beliefs
    are cached per clique for the whole batch, and every query returns one
    result per row. The engine is single-writer: updates go through
    `add_to_slot` or `add_to_table`.
    """

    def __init__(self, n_local: int, edges, tables, aug_vertices, rids, components):
        self.n_local = n_local
        self.edges = [tuple(e) for e in edges]
        self.tables: list[np.ndarray] = list(tables)
        self.aug_vertices = np.asarray(aug_vertices, dtype=int).reshape(-1, n_local)
        self.size = len(self.aug_vertices)
        self.rids = np.asarray(rids, dtype=int).reshape(self.size, len(self.edges))
        self.components = np.asarray(components, dtype=int)
        # rid -> (slot, row)
        self.where = {int(r): (s, b) for (b, s), r in np.ndenumerate(self.rids)}
        (
            self.cliques,
            self.nbrs,
            self.seps,
            self.owner,
            self.clique_of_vertex,
        ) = _build_junction_tree(n_local, [tuple(sorted(e)) for e in self.edges])
        self._members = [[] for _ in self.cliques]
        for s, cid in enumerate(self.owner):
            self._members[cid].append(s)
        self._backtrack = self._backtrack_plan()
        self._pots: dict[int, np.ndarray] = {}
        self._msgs: dict[str, dict] = {"sum": {}, "max": {}}
        self._beliefs: dict[str, dict] = {"sum": {}, "max": {}}
        self._sum_tau: float | None = None
        self.messages_computed = 0

    def _backtrack_plan(self):
        """(parent, clique, axis order, separator, free vertices) for every
        non-root clique, parents first. The axis order puts the separator
        vertices before the free ones, each in clique order."""
        plan = []
        stack = [0]
        seen = {0}
        while stack:
            a = stack.pop()
            for c in self.nbrs[a]:
                if c in seen:
                    continue
                seen.add(c)
                cv = self.cliques[c]
                sep = [v for v in cv if v in self.seps[(a, c)]]
                free = [v for v in cv if v not in self.seps[(a, c)]]
                perm = (0, *(cv.index(v) + 1 for v in sep + free))
                plan.append((a, c, perm, sep, free))
                stack.append(c)
        return plan

    # -- potential updates --------------------------------------------------

    def add_to_slot(self, slot: int, rows, delta: np.ndarray) -> None:
        """Add `delta` to the tables of `slot` at `rows` (an index or an
        index array)."""
        self.tables[slot][rows] += delta
        self._touch(self.owner[slot])

    def add_to_table(self, rid: int, delta: np.ndarray) -> None:
        self.add_to_slot(*self.where[rid], delta)

    def _touch(self, cid: int) -> None:
        self._pots.pop(cid, None)
        for beliefs in self._beliefs.values():
            beliefs.pop(cid, None)
        # Drop every message directed away from cid, and the beliefs that
        # read them. A message is cached only after its inputs and dropped
        # with any of them, so each cache is closed downstream: the walk
        # stops at the first message that neither cache holds.
        stack = [(cid, None)]
        while stack:
            a, prev = stack.pop()
            for b in self.nbrs[a]:
                if b == prev:
                    continue
                dropped = False
                for mode, msgs in self._msgs.items():
                    if msgs.pop((a, b), None) is not None:
                        self._beliefs[mode].pop(b, None)
                        dropped = True
                if dropped:
                    stack.append((b, a))

    def _pot(self, cid: int) -> np.ndarray:
        p = self._pots.get(cid)
        if p is None:
            cv = self.cliques[cid]
            p = np.zeros((self.size,) + (2,) * len(cv))
            for s in self._members[cid]:
                p = p + _expand(self.tables[s], self.edges[s], cv)
            self._pots[cid] = p
        return p

    # -- message passing ----------------------------------------------------

    def _cache(self, mode: str, tau: float | None) -> dict:
        if mode == "sum" and tau != self._sum_tau:
            self._msgs["sum"].clear()
            self._beliefs["sum"].clear()
            self._sum_tau = tau
        return self._msgs[mode]

    def _incoming(self, cid: int, mode: str, tau: float | None, skip=None) -> np.ndarray:
        """Scaled potential of cid plus its cached incoming messages, except
        the one from `skip`."""
        acc = self._pot(cid)
        if mode == "sum":
            acc = acc / tau
        cv = self.cliques[cid]
        msgs = self._msgs[mode]
        for k in self.nbrs[cid]:
            if k != skip:
                acc = acc + _expand(msgs[(k, cid)], self.seps[(k, cid)], cv)
        return acc

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
            acc = self._incoming(a, mode, tau, skip=b)
            cache[(a, b)] = _reduce(acc, self.cliques[a], self.seps[(a, b)], mode)
            self.messages_computed += 1

    def _belief(self, cid: int, mode: str, tau: float | None) -> np.ndarray:
        cache = self._cache(mode, tau)
        beliefs = self._beliefs[mode]
        b = beliefs.get(cid)
        if b is None:
            self._ensure_msgs(cache, [(k, cid) for k in self.nbrs[cid]], mode, tau)
            b = beliefs[cid] = self._incoming(cid, mode, tau)
        return b

    # -- queries: one result per row -------------------------------------------

    @staticmethod
    def _check_tau(tau: float) -> None:
        if tau < TAU_FLOOR:
            raise ValueError(f"temperature {tau} below floor {TAU_FLOOR}")

    def log_partition(self, tau: float) -> np.ndarray:
        """Contribution of each component to the smooth dual:
        tau * log-sum-exp(f/tau)."""
        self._check_tau(tau)
        b = self._belief(0, "sum", tau)
        return tau * _lse(b, tuple(range(1, b.ndim))).reshape(self.size)

    def log_marginal(self, slot: int, tau: float) -> np.ndarray:
        """Normalized log marginal tables of replica slot `slot` at
        temperature tau."""
        self._check_tau(tau)
        cid = self.owner[slot]
        t = _reduce(self._belief(cid, "sum", tau), self.cliques[cid], self.edges[slot], "sum")
        self.messages_computed += 1
        return t - _lse(t, tuple(range(1, t.ndim)))

    def max_marginal(self, slot: int) -> np.ndarray:
        """Unnormalized max-marginal tables of replica slot `slot`."""
        cid = self.owner[slot]
        self.messages_computed += 1
        return _reduce(self._belief(cid, "max", None), self.cliques[cid], self.edges[slot], "max")

    def vertex_max_marginal(self) -> np.ndarray:
        """Max-marginal of every local vertex, shape (rows, n_local, 2)."""
        out = np.empty((self.size, self.n_local, 2))
        for v, cid in enumerate(self.clique_of_vertex):
            out[:, v] = _reduce(self._belief(cid, "max", None), self.cliques[cid], (v,), "max")
        self.messages_computed += self.n_local
        return out

    def component_max(self) -> np.ndarray:
        b = self._belief(0, "max", None)
        return np.max(b, axis=tuple(range(1, b.ndim)))

    def map_assignment(self) -> np.ndarray:
        """One maximizer per row by max-product backtracking, shape
        (rows, n_local).

        Argmax tie-breaks take the first maximizing index, which prefers +1.
        """
        rows = np.arange(self.size)
        state = np.zeros((self.size, self.n_local), dtype=int)
        b = self._belief(0, "max", None)
        _set_bits(state, self.cliques[0], np.argmax(b.reshape(self.size, -1), axis=1))
        for a, c, perm, sep, free in self._backtrack:
            acc = np.transpose(self._incoming(c, "max", None, skip=a), perm)
            acc = acc.reshape(self.size, 2 ** len(sep), 2 ** len(free))
            at = state[:, sep] @ (1 << np.arange(len(sep))[::-1])
            _set_bits(state, free, np.argmax(acc[rows, at], axis=1))
        return LABELS[state]


def _set_bits(state: np.ndarray, verts, index: np.ndarray) -> None:
    """Write flat row-major indices over binary `verts` into `state`."""
    state[:, verts] = (index[:, None] >> np.arange(len(verts))[::-1]) & 1


def build_engines(aug) -> list[SubgraphEngine]:
    """One engine per local layout of the components of a DiscreteAugmented
    model.

    Components are rows in component order. Each replica's table in `aug`
    is replaced by a view of its row in the engine's stacked tables.
    """
    rmap = aug.rmap
    comps = rmap.component_vertices()
    rids_of = [[] for _ in comps]
    for rid in range(len(rmap.replica_edges)):
        rids_of[rmap.replica_component(rid)].append(rid)
    layouts: dict[tuple, list[int]] = {}
    for ci, verts in enumerate(comps):
        local = {v: i for i, v in enumerate(verts)}
        edges = tuple(tuple(local[v] for v in rmap.replica_edges[r]) for r in rids_of[ci])
        layouts.setdefault((len(verts), edges), []).append(ci)
    engines = []
    for (n_local, edges), cis in layouts.items():
        rids = np.array([rids_of[ci] for ci in cis], dtype=int).reshape(len(cis), len(edges))
        tables = []
        for s in range(len(edges)):
            stacked = np.stack([aug.tables[r] for r in rids[:, s]])
            for b, r in enumerate(rids[:, s]):
                aug.tables[r] = stacked[b]
            tables.append(stacked)
        engines.append(
            SubgraphEngine(n_local, edges, tables, [comps[ci] for ci in cis], rids, cis)
        )
    return engines


# ---------------------------------------------------------------------------
# Gaussian marginalization by dense Schur complements

# Not a cut-over: every component takes the dense path below. The
# benchmark's tracer (perfbench/tracer.py) reads this size to count Schur
# complements on wide components (`inference.schur_wide_calls`).
DENSE_LIMIT = 64


def complement(n: int, idx) -> np.ndarray:
    """The indices of range(n) outside `idx`, ascending."""
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    return np.flatnonzero(mask)


def _cholesky(J, h, elim):
    """Lower Cholesky factors of the `elim` blocks (a slice) of a stack of
    forms, and the mask of inactive variables (all False unless the plain
    factor fails, as it does on a block holding an inactive variable).
    Raises as `factor_active` does."""
    block = J[..., elim, elim]
    inactive = np.zeros(J.shape[:-1], dtype=bool)
    try:
        L = np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        inactive = ~J.any(axis=-1)
        if (h[inactive] != 0).any():
            raise NotPositiveDefiniteError(
                "improper component: potential on an inactive variable"
            ) from None
        unit = inactive[..., elim]
        if not unit.any():
            raise NotPositiveDefiniteError("block is not positive definite") from None
        try:
            L = np.linalg.cholesky(block + unit[..., None] * np.eye(unit.shape[-1]))
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("active block is not positive definite") from None
    # LAPACK may pass NaN through without failing; it reaches the diagonal.
    if not np.isfinite(np.diagonal(L, axis1=-2, axis2=-1)).all():
        raise NotPositiveDefiniteError("block is not finite")
    return L, inactive


def factor_active(J, h):
    """Cholesky factors of a stack of information forms (J of shape
    (..., n, n), h of shape (..., n)), and the mask of their inactive
    variables: the one positive-definiteness check.

    A variable is inactive when its whole row of J is zero, as on summary
    scales before their first cross-scale update; it is factored as a unit
    diagonal. Raises NotPositiveDefiniteError for a potential on an
    inactive variable and for a form that is not positive definite or not
    finite.
    """
    return _cholesky(np.asarray(J, dtype=float), np.asarray(h, dtype=float), slice(None))


def gaussian_marginal_info(J, h, keep, elim=None):
    """Marginal information forms of `keep` after eliminating `elim`
    (default every index outside `keep`), one per row of a stack.

    A Cholesky factor of the eliminated block gives the corrections to
    J[keep, keep] and h[keep]; inactive eliminated variables drop out, and
    the factor raises as `factor_active` does. `keep` and `elim` are index
    arrays, or two slices of forms already gathered in (eliminated, kept)
    order, which are read without another gather.
    """
    J = np.asarray(J, dtype=float)
    h = np.asarray(h, dtype=float)
    if not isinstance(keep, slice):
        keep = np.asarray(keep, dtype=int)
        if elim is None:
            elim = complement(J.shape[-1], keep)
        order = np.concatenate([np.asarray(elim, dtype=int), keep])
        J, h = J[..., order[:, None], order], h[..., order]
        e = len(order) - len(keep)
        elim, keep = slice(0, e), slice(e, None)
    Jek = J[..., elim, keep]
    if not Jek.shape[-2]:
        return J[..., keep, keep], h[..., keep]
    L, _ = _cholesky(J, h, elim)
    W = np.linalg.solve(L, np.concatenate([Jek, h[..., elim, None]], axis=-1))
    WK = np.swapaxes(W[..., :-1], -1, -2)
    Jm = J[..., keep, keep] - WK @ W[..., :-1]
    hm = h[..., keep] - (WK @ W[..., -1:])[..., 0]
    return 0.5 * (Jm + np.swapaxes(Jm, -1, -2)), hm


# The one component read, and the only name behind the benchmark's
# `inference.component_solve_s` (perfbench/tracer.py), hence its name.
def gaussian_component_mean(J, h):
    """Mean, covariance diagonal and value max_x -1/2 x J x + h x = 1/2 h^T mu
    of every row of a stack, from one `factor_active` factor; raises as it
    does. An inactive variable has mean 0 and infinite variance."""
    L, inactive = factor_active(J, h)
    Linv = np.linalg.solve(L, np.broadcast_to(np.eye(L.shape[-1]), L.shape))
    mean = np.einsum("...ij,...i->...j", Linv, np.einsum("...ij,...j->...i", Linv, h))
    # Sigma = L^-T L^-1, so Sigma_vv is the squared norm of column v of L^-1.
    var = np.einsum("...ij,...ij->...j", Linv, Linv)
    var[inactive] = np.inf
    return mean, var, 0.5 * np.einsum("...i,...i->...", h, mean)
