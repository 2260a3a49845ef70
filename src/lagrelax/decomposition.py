"""Augmented-graph construction: vertex replication, consistent potential
splitting, and lift/projection between original and augmented assignments.

A strategy replicates vertices and hyperedges so that every connected
component of the augmented graph is thin. Singleton potentials are
replicated at every copy of their vertex; larger hyperedges are placed by
the strategy. A class whose replicas share a component also gets an
intermediary hub replica in a component of its own. The geometric strategies
(`loops`, `induced-blocks`, `thin-strips`) need `rows`/`cols` unless the
vertex count is a perfect square. The solvers then move Lagrange multipliers
implicitly by mutating the split potentials inside the consistency subspace
(sum over replicas == original potential). Only discrete relaxations bound
component width, on their engines' junction trees (`build_relaxation`).
Gaussian components are stored in one stack per component size, and both
solvers colour their classes with one first-fit helper.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .models import (
    DiscreteFactorModel,
    GaussianInfoModel,
    Hypergraph,
    ModelError,
    canonical_edge,
    monomial_table,
)

STRATEGIES = (
    "disjoint-edges",
    "spanning-trees",
    "tree-plus-leaves",
    "loops",
    "induced-blocks",
    "thin-strips",
)


class DecompositionError(ModelError):
    """Strategy cannot produce a valid replication map."""


class UncoveredEdgeError(DecompositionError):
    """Some hyperedge is not covered by any component."""


@dataclass
class DecompositionConfig:
    strategy: str = "spanning-trees"
    rows: int | None = None
    cols: int | None = None
    strip_width: int = 8  # K
    overlap: int = 2  # L
    block: int = 3
    # Discrete relaxations only: the largest junction-tree clique of any
    # component, minus one, that `discrete.build_relaxation` accepts.
    treewidth_bound: int | None = 12

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise DecompositionError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )


def as_config(
    config: DecompositionConfig | str | None, default: str, **kwargs
) -> DecompositionConfig:
    """The configuration a builder runs: `config`, or a config of the named
    strategy (`default` when None), with `kwargs` replacing its fields."""
    if not isinstance(config, DecompositionConfig):
        config = DecompositionConfig(strategy=config or default)
    return dataclasses.replace(config, **kwargs)


def _grid_shape(n: int, config: DecompositionConfig) -> tuple[int, int] | None:
    """(rows, cols) from the config, else a square shape when n is a perfect
    square, else None."""
    if config.rows is not None and config.cols is not None:
        if config.rows * config.cols != n:
            raise DecompositionError(
                f"rows*cols = {config.rows * config.cols} but n = {n}"
            )
        return config.rows, config.cols
    r = math.isqrt(n)
    return (r, r) if r * r == n else None


def _required_grid_shape(n: int, config: DecompositionConfig) -> tuple[int, int]:
    shape = _grid_shape(n, config)
    if shape is None:
        raise DecompositionError(
            f"{config.strategy} needs the grid shape: n = {n} is not a perfect "
            "square, so set rows and cols"
        )
    return shape


def _grid_index(rows: int, cols: int):
    return lambda r, c: r * cols + c


def _union_find(n: int):
    """Parent list and path-halving `find` of n singleton sets; merge two
    sets by `parent[find(a)] = find(b)`."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    return parent, find


def _component_labels(n: int, hyperedges) -> np.ndarray:
    """Connected-component label of each of n vertices joined by the
    hyperedges, numbered in order of first vertex."""
    parent, find = _union_find(n)
    for e in hyperedges:
        r = find(e[0])
        for v in e[1:]:
            parent[find(v)] = r
    roots = {}
    return np.array([roots.setdefault(find(v), len(roots)) for v in range(n)], dtype=int)


@dataclass
class ReplicationMap:
    """Surjection from augmented vertices/hyperedges back to the originals.

    replica_edges[i] is a tuple of augmented vertex ids whose positions
    align with the (sorted) vertex order of orig_edges[edge_origin[i]].
    Components are the connected pieces of the augmented graph; hub
    replicas are isolated intermediary components added so that every
    equivalence class can be updated through pairs living in distinct
    components.
    """

    n_orig: int
    orig_edges: tuple[tuple[int, ...], ...]
    vertex_origin: np.ndarray
    replica_edges: list[tuple[int, ...]]
    edge_origin: np.ndarray
    notes: list[str] = field(default_factory=list)
    hub_replicas: frozenset[int] = frozenset()
    # thin-strips only: overlap-block agreement classes as
    # (orig vertex tuple, [aug vertex tuples, one per owning component])
    block_classes: list[tuple[tuple[int, ...], list[tuple[int, ...]]]] = field(
        default_factory=list
    )

    def __post_init__(self):
        self.vertex_origin = np.asarray(self.vertex_origin, dtype=int)
        self.edge_origin = np.asarray(self.edge_origin, dtype=int)
        self.component_of_vertex = _component_labels(self.n_aug, self.replica_edges)
        self.n_components = int(self.component_of_vertex.max(initial=-1)) + 1
        self.vertex_replicas = [[] for _ in range(self.n_orig)]
        for v_aug, v in enumerate(self.vertex_origin):
            self.vertex_replicas[v].append(v_aug)
        self.edge_replicas = [[] for _ in self.orig_edges]
        for rid, oid in enumerate(self.edge_origin):
            self.edge_replicas[oid].append(rid)

    @property
    def n_aug(self) -> int:
        return int(len(self.vertex_origin))

    def replica_count(self, orig_edge_idx: int) -> int:
        return len(self.edge_replicas[orig_edge_idx])

    def component_vertices(self) -> list[list[int]]:
        out = [[] for _ in range(self.n_components)]
        for v in range(self.n_aug):
            out[self.component_of_vertex[v]].append(v)
        return out

    @cached_property
    def first_replica(self) -> np.ndarray:
        """The first augmented copy of every original vertex."""
        return np.array([reps[0] for reps in self.vertex_replicas], dtype=int)

    def replica_component(self, rid: int) -> int:
        return int(self.component_of_vertex[self.replica_edges[rid][0]])

    def validate(self) -> None:
        if set(self.vertex_origin.tolist()) != set(range(self.n_orig)):
            raise DecompositionError("vertex map is not surjective")
        for oid, rids in enumerate(self.edge_replicas):
            if not rids:
                raise UncoveredEdgeError(
                    f"hyperedge {self.orig_edges[oid]} has no replica"
                )
            for rid in rids:
                got = canonical_edge(self.vertex_origin[list(self.replica_edges[rid])])
                if got != self.orig_edges[oid]:
                    raise DecompositionError(
                        f"replica {rid} maps to {got}, expected {self.orig_edges[oid]}"
                    )


class _Builder:
    def __init__(self, n: int, orig_edges):
        self.n = n
        self.orig_edges = orig_edges
        self.edge_index = {e: i for i, e in enumerate(orig_edges)}
        self.vertex_origin: list[int] = []
        self.replica_edges: list[tuple[int, ...]] = []
        self.edge_origin: list[int] = []
        self.notes: list[str] = []

    def new_vertex(self, orig_v: int) -> int:
        self.vertex_origin.append(orig_v)
        return len(self.vertex_origin) - 1

    def add_replica(self, orig_edge, aug_vertices) -> int:
        oid = self.edge_index[canonical_edge(orig_edge)]
        self.replica_edges.append(tuple(aug_vertices))
        self.edge_origin.append(oid)
        return len(self.replica_edges) - 1

    def add_induced_component(self, orig_vertices, covered_edges) -> dict[int, int]:
        """Fresh copies of `orig_vertices` plus replicas of `covered_edges`."""
        local = {v: self.new_vertex(v) for v in orig_vertices}
        for e in covered_edges:
            self.add_replica(e, tuple(local[v] for v in e))
        return local

    def finish(self, **extra) -> ReplicationMap:
        # Singletons ride along on every copy of their vertex.
        singles = {e[0] for e in self.orig_edges if len(e) == 1}
        for v_aug, v in enumerate(list(self.vertex_origin)):
            if v in singles:
                self.add_replica((v,), (v_aug,))
        # A class update equalizes marginals across replicas, which is exact
        # only when the updated replicas live in distinct components. Each
        # class that violates this gets one hub replica, alone in a fresh
        # component; sweeps then route its updates pairwise through the hub.
        comp = _component_labels(len(self.vertex_origin), self.replica_edges)
        comps_of = [[] for _ in self.orig_edges]
        for e, oid in zip(self.replica_edges, self.edge_origin):
            comps_of[oid].append(comp[e[0]])
        need_hub = [oid for oid, cs in enumerate(comps_of) if len(set(cs)) < len(cs)]
        hubs = []
        for oid in need_hub:
            e = self.orig_edges[oid]
            aug = [self.new_vertex(v) for v in e]
            hubs.append(self.add_replica(e, aug))
            if len(e) > 1:
                # Hub vertices still carry their singleton potentials.
                for v, v_aug in zip(e, aug):
                    if v in singles:
                        self.add_replica((v,), (v_aug,))
        if need_hub:
            self.notes.append(f"added {len(need_hub)} intermediary replica(s)")
        return ReplicationMap(
            n_orig=self.n,
            orig_edges=tuple(self.orig_edges),
            vertex_origin=np.array(self.vertex_origin, dtype=int),
            replica_edges=self.replica_edges,
            edge_origin=np.array(self.edge_origin, dtype=int),
            notes=self.notes,
            hub_replicas=frozenset(hubs),
            **extra,
        )


def _nonsingleton(edges):
    return [e for e in edges if len(e) > 1]


def _require_pairwise(edges, strategy):
    big = [e for e in edges if len(e) > 2]
    if big:
        raise UncoveredEdgeError(
            f"strategy {strategy!r} handles pairwise graphs only; "
            f"cannot cover hyperedge {big[0]}"
        )


def _isolated_vertices(n, edges):
    covered = set()
    for e in edges:
        covered.update(e)
    return [v for v in range(n) if v not in covered]


def _build_disjoint_edges(b: _Builder):
    for e in _nonsingleton(b.orig_edges):
        b.add_induced_component(e, [e])
    for v in _isolated_vertices(b.n, _nonsingleton(b.orig_edges)):
        b.new_vertex(v)


def _adjacency(n, pair_edges):
    adj = [[] for _ in range(n)]
    for u, v in pair_edges:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    return adj


def _snake_tree_edges(rows, cols, column_major: bool):
    idx = _grid_index(rows, cols)
    edges = []
    if column_major:
        for c in range(cols):
            for r in range(rows - 1):
                edges.append((idx(r, c), idx(r + 1, c)))
        for c in range(cols - 1):
            r = rows - 1 if c % 2 == 0 else 0
            edges.append((idx(r, c), idx(r, c + 1)))
    else:
        for r in range(rows):
            for c in range(cols - 1):
                edges.append((idx(r, c), idx(r, c + 1)))
        for r in range(rows - 1):
            c = cols - 1 if r % 2 == 0 else 0
            edges.append((idx(r, c), idx(r + 1, c)))
    return [canonical_edge(e) for e in edges]


def _grid_edge_set(rows, cols):
    idx = _grid_index(rows, cols)
    out = set()
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                out.add(canonical_edge((idx(r, c), idx(r + 1, c))))
            if c + 1 < cols:
                out.add(canonical_edge((idx(r, c), idx(r, c + 1))))
    return out


def _build_spanning_trees(b: _Builder, config: DecompositionConfig):
    edges = _nonsingleton(b.orig_edges)
    _require_pairwise(edges, "spanning-trees")
    shape = _grid_shape(b.n, config)
    if shape is not None and shape[0] > 1 and set(edges) == _grid_edge_set(*shape):
        trees = [
            _snake_tree_edges(*shape, column_major=True),
            _snake_tree_edges(*shape, column_major=False),
        ]
        for tree in trees:
            verts = sorted({v for e in tree for v in e})
            b.add_induced_component(verts, tree)
        return
    # General graphs: greedy forest covers until every edge is used.
    remaining = set(edges)
    while remaining:
        parent, find = _union_find(b.n)
        forest = []
        for e in sorted(remaining):
            ru, rv = find(e[0]), find(e[1])
            if ru != rv:
                parent[ru] = rv
                forest.append(e)
        remaining -= set(forest)
        groups: dict[int, list] = {}
        for e in forest:
            groups.setdefault(find(e[0]), []).append(e)
        for tree in groups.values():
            verts = sorted({v for e in tree for v in e})
            b.add_induced_component(verts, tree)
    for v in _isolated_vertices(b.n, edges):
        b.new_vertex(v)


def _build_tree_plus_leaves(b: _Builder):
    edges = _nonsingleton(b.orig_edges)
    _require_pairwise(edges, "tree-plus-leaves")
    adj = _adjacency(b.n, edges)
    pre = [-1] * b.n
    tree_copy = [-1] * b.n
    counter = 0
    tree_edges = set()
    for root in range(b.n):
        if pre[root] >= 0:
            continue
        stack = [root]
        pre[root] = counter
        counter += 1
        tree_copy[root] = b.new_vertex(root)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if pre[w] < 0:
                    pre[w] = counter
                    counter += 1
                    tree_copy[w] = b.new_vertex(w)
                    tree_edges.add(canonical_edge((u, w)))
                    b.add_replica((u, w), _ordered_pair(u, w, tree_copy[u], tree_copy[w]))
                    stack.append(w)
    for e in edges:
        if e in tree_edges:
            continue
        u, v = e
        early, late = (u, v) if pre[u] < pre[v] else (v, u)
        leaf = b.new_vertex(early)  # earlier endpoint replicated as a leaf
        b.add_replica(e, _ordered_pair(early, late, leaf, tree_copy[late]))
    for v in _isolated_vertices(b.n, edges):
        if tree_copy[v] < 0:
            b.new_vertex(v)


def _ordered_pair(u, v, au, av):
    """Augmented pair aligned with the sorted (u, v) order."""
    return (au, av) if u < v else (av, au)


def _build_loops(b: _Builder, config: DecompositionConfig):
    edges = _nonsingleton(b.orig_edges)
    _require_pairwise(edges, "loops")
    rows, cols = _required_grid_shape(b.n, config)
    idx = _grid_index(rows, cols)
    edge_set = set(edges)
    covered = set()
    if rows > 1:
        for r in range(rows - 1):
            for c in range(cols - 1):
                cell = [idx(r, c), idx(r, c + 1), idx(r + 1, c + 1), idx(r + 1, c)]
                ring = [
                    canonical_edge((cell[i], cell[(i + 1) % 4])) for i in range(4)
                ]
                if not all(e in edge_set for e in ring):
                    continue
                local = {v: b.new_vertex(v) for v in cell}
                for e in ring:
                    b.add_replica(e, tuple(local[v] for v in e))
                covered.update(ring)
    leftovers = [e for e in edges if e not in covered]
    for e in leftovers:
        b.add_induced_component(e, [e])
    if leftovers:
        b.notes.append(
            f"loops: {len(leftovers)} edge(s) on no unit cell fell back to "
            "2-clique components"
        )
    for v in _isolated_vertices(b.n, edges):
        b.new_vertex(v)


def _window_starts(extent: int, size: int, stride: int) -> list[int]:
    if size >= extent:
        return [0]
    starts = list(range(0, extent - size, stride))
    starts.append(extent - size)
    return sorted(set(starts))


def _build_induced_blocks(b: _Builder, config: DecompositionConfig):
    edges = _nonsingleton(b.orig_edges)
    rows, cols = _required_grid_shape(b.n, config)
    size = config.block
    if size < 2:
        raise DecompositionError("block size must be at least 2")
    idx = _grid_index(rows, cols)
    stride = max(size - 1, 1)
    covered = set()
    for rs in _window_starts(rows, size, stride):
        for cs in _window_starts(cols, size, stride):
            verts = [
                idx(r, c)
                for r in range(rs, min(rs + size, rows))
                for c in range(cs, min(cs + size, cols))
            ]
            vset = set(verts)
            inside = [e for e in edges if set(e) <= vset]
            b.add_induced_component(sorted(verts), inside)
            covered.update(inside)
    missing = [e for e in edges if e not in covered]
    if missing:
        raise UncoveredEdgeError(
            f"induced-blocks (block={size}) leaves {missing[0]} uncovered"
        )


def _strip_starts(cols: int, width: int, overlap: int) -> list[int]:
    stride = max(width - overlap, 1)
    return _window_starts(cols, width, stride)


def _build_thin_strips(b: _Builder, config: DecompositionConfig):
    edges = _nonsingleton(b.orig_edges)
    rows, cols = _required_grid_shape(b.n, config)
    K, L = config.strip_width, config.overlap
    if K < 1 or L < 1:
        raise DecompositionError("strip width and overlap must be positive")
    idx = _grid_index(rows, cols)
    starts = _strip_starts(cols, K, L)
    covered = set()
    strip_locals = []
    strip_cols = []
    for cs in starts:
        cset = range(cs, min(cs + K, cols))
        verts = [idx(r, c) for r in range(rows) for c in cset]
        vset = set(verts)
        inside = [e for e in edges if set(e) <= vset]
        local = b.add_induced_component(sorted(verts), inside)
        covered.update(inside)
        strip_locals.append(local)
        strip_cols.append(set(cset))
    missing = [e for e in edges if e not in covered]
    if missing:
        raise UncoveredEdgeError(
            f"thin-strips (K={K}, L={L}) leaves {missing[0]} uncovered"
        )
    # Agreement blocks tile each overlap region into K-row chunks.
    block_classes = []
    for s in range(len(starts) - 1):
        shared = sorted(strip_cols[s] & strip_cols[s + 1])
        if not shared:
            raise DecompositionError("consecutive strips do not overlap")
        for r0 in range(0, rows, K):
            rset = range(r0, min(r0 + K, rows))
            orig = tuple(sorted(idx(r, c) for r in rset for c in shared))
            reps = [
                tuple(strip_locals[s][v] for v in orig),
                tuple(strip_locals[s + 1][v] for v in orig),
            ]
            block_classes.append((orig, reps))
    b.notes.append(f"thin-strips: {len(starts)} strips at columns {starts}")
    return block_classes


def build_decomposition(
    graph: Hypergraph, config: DecompositionConfig | str | None = None, **kwargs
) -> ReplicationMap:
    """Build a replication map for `graph` under the configured strategy.

    Accepts a DecompositionConfig or a strategy name (`spanning-trees` when
    None); keyword arguments set DecompositionConfig fields. The returned
    map is finished in one pass: strategy components, singleton replicas on
    every vertex copy, then an intermediary hub for every class whose
    replicas share a component.
    It is validated for coverage; the treewidth bound is checked by
    `discrete.build_relaxation` on the junction trees of its engines.
    """
    config = as_config(config, "spanning-trees", **kwargs)
    b = _Builder(graph.vertex_count, graph.hyperedges)
    extra = {}
    if config.strategy == "disjoint-edges":
        _build_disjoint_edges(b)
    elif config.strategy == "spanning-trees":
        _build_spanning_trees(b, config)
    elif config.strategy == "tree-plus-leaves":
        _build_tree_plus_leaves(b)
    elif config.strategy == "loops":
        _build_loops(b, config)
    elif config.strategy == "induced-blocks":
        _build_induced_blocks(b, config)
    elif config.strategy == "thin-strips":
        extra["block_classes"] = _build_thin_strips(b, config)
    rmap = b.finish(**extra)
    rmap.validate()
    return rmap


def update_groups(rmap: ReplicationMap, rids) -> list[list[int]]:
    """Partition a class into update groups with one replica per component.

    All-distinct components update as a single group; otherwise updates run
    pairwise through the class's intermediary hub, which `build_decomposition`
    adds to every such class.
    """
    rids = list(rids)
    comps = [rmap.replica_component(r) for r in rids]
    if len(set(comps)) == len(comps):
        return [rids]
    hubs = [r for r in rids if r in rmap.hub_replicas]
    if not hubs:
        raise DecompositionError(
            "class has replicas sharing a component but no intermediary hub"
        )
    hub = hubs[0]
    return [[r, hub] for r in rids if r != hub]


@dataclass
class Colour:
    """Classes that share no component, updated in one array step. A hub
    class (several update groups) is a colour of its own: `step` then only
    measures its residual, and `hub_groups` update it one group after
    another."""

    classes: list
    step: object
    hub_groups: list


def first_fit_colours(classes, components_of, kind_of, alone) -> list[list]:
    """Greedy first-fit colouring in class order.

    A class joins the first colour of its kind (`kind_of`) whose classes
    share no component with it (`components_of`, a set); a class for which
    `alone` holds gets a colour of its own. Returns the colours as lists of
    classes.
    """
    colours: list[tuple[list, set | None]] = []
    for cls in classes:
        if alone(cls):
            colours.append(([cls], None))
            continue
        comps = set(components_of(cls))
        for members, used in colours:
            if used is not None and kind_of(members[0]) == kind_of(cls) and used.isdisjoint(comps):
                members.append(cls)
                used |= comps
                break
        else:
            colours.append(([cls], comps))
    return [members for members, _ in colours]


def replica_classes(rmap: ReplicationMap):
    """Yield (oid, sorted rids, update groups) for every original hyperedge
    with two or more replicas, smaller hyperedges first."""
    edges = rmap.orig_edges
    for oid in sorted(range(len(edges)), key=lambda oid: (len(edges[oid]), edges[oid])):
        rids = sorted(rmap.edge_replicas[oid])
        if len(rids) > 1:
            yield oid, rids, update_groups(rmap, rids)


# ---------------------------------------------------------------------------
# Augmented models


@dataclass
class DiscreteAugmented:
    """Replicated discrete model: one log-table per replica hyperedge.

    Potentials are general tables (not just monomials) because dual updates
    add arbitrary per-entry corrections; consistency means the tables of
    each class sum entrywise to the original monomial table.
    """

    base: DiscreteFactorModel
    rmap: ReplicationMap
    tables: list[np.ndarray]

    def consistency_residual(self) -> float:
        """Largest entrywise |sum of replica tables - original table|;
        NaN when any table is NaN."""
        resids = []
        for oid, e in enumerate(self.rmap.orig_edges):
            total = sum(self.tables[rid] for rid in self.rmap.edge_replicas[oid])
            resids.append(np.max(np.abs(total - monomial_table(self.base.theta(e), len(e)))))
        return float(np.max(resids, initial=0.0))

    def augmented_objective(self, x_aug) -> float:
        x_aug = np.asarray(x_aug)
        idx = ((1.0 - x_aug) / 2).astype(int)  # +1 -> 0, -1 -> 1
        total = 0.0
        for rid, e in enumerate(self.rmap.replica_edges):
            total += float(self.tables[rid][tuple(idx[list(e)])])
        return total


@dataclass
class GaussianComponent:
    """Dense information form of one augmented component. In a relaxation
    J and h are views of the component's rows of its `ComponentStack`, so
    writing to them writes to the stack."""

    vertices: list[int]  # augmented ids
    J: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.local = {v: i for i, v in enumerate(self.vertices)}

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass
class ComponentStack:
    """The information forms of the components of one size, one row each."""

    J: np.ndarray  # (rows, size, size)
    h: np.ndarray  # (rows, size)
    comps: np.ndarray  # component index of each row, ascending
    vertices: np.ndarray  # (rows, size) augmented ids


def stack_components(components) -> list[ComponentStack]:
    """Copy `components` into one stack per size, in order of first
    appearance, and rebind each component's J and h to its rows."""
    by_size: dict[int, list[int]] = {}
    for ci, comp in enumerate(components):
        by_size.setdefault(comp.size, []).append(ci)
    stacks = []
    for cis in by_size.values():
        stack = ComponentStack(
            np.array([components[ci].J for ci in cis], dtype=float),
            np.array([components[ci].h for ci in cis], dtype=float),
            np.array(cis),
            np.array([components[ci].vertices for ci in cis], dtype=int),
        )
        for row, ci in enumerate(cis):
            components[ci].J = stack.J[row]
            components[ci].h = stack.h[row]
        stacks.append(stack)
    return stacks


@dataclass
class GaussianAugmented:
    """Replicated Gaussian model stored per component, in one stack per
    component size."""

    base: GaussianInfoModel
    rmap: ReplicationMap
    components: list[GaussianComponent]
    stacks: list[ComponentStack]

    @cached_property
    def _aggregate_index(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per stack: the flat aggregate index of every J entry and h entry."""
        n = self.rmap.n_orig
        out = []
        for stack in self.stacks:
            orig = self.rmap.vertex_origin[stack.vertices]
            out.append(((orig[:, :, None] * n + orig[:, None, :]).ravel(), orig.ravel()))
        return out

    def aggregate(self) -> tuple[np.ndarray, np.ndarray]:
        """Sum of the component information forms over the original
        vertices: one scatter-add per stack."""
        n = self.rmap.n_orig
        J = np.zeros(n * n)
        h = np.zeros(n)
        for stack, (j_index, h_index) in zip(self.stacks, self._aggregate_index):
            J += np.bincount(j_index, weights=stack.J.ravel(), minlength=n * n)
            h += np.bincount(h_index, weights=stack.h.ravel(), minlength=n)
        return J.reshape(n, n), h

    def consistency_residual(self) -> tuple[float, float]:
        """Largest |aggregate - original| over J and over h."""
        J, h = self.aggregate()
        J0, h0 = self.base.aggregate_dense
        return float(np.max(np.abs(J - J0))), float(np.max(np.abs(h - h0)))


def split_potentials(model, rmap: ReplicationMap):
    """Uniform consistent split of potentials over replicas."""
    if isinstance(model, DiscreteFactorModel):
        tables = []
        for rid, e_aug in enumerate(rmap.replica_edges):
            oid = int(rmap.edge_origin[rid])
            e = rmap.orig_edges[oid]
            r = rmap.replica_count(oid)
            tables.append(monomial_table(model.theta(e) / r, len(e)))
        return DiscreteAugmented(model, rmap, tables)

    if isinstance(model, GaussianInfoModel):
        comps = [
            GaussianComponent(verts, np.zeros((len(verts), len(verts))), np.zeros(len(verts)))
            for verts in rmap.component_vertices()
        ]
        stacks = stack_components(comps)
        term_by_support = {t.vertices: t for t in model.clique_terms}
        for rid, e_aug in enumerate(rmap.replica_edges):
            oid = int(rmap.edge_origin[rid])
            e = rmap.orig_edges[oid]
            term = term_by_support.get(e)
            if term is None:
                continue
            r = rmap.replica_count(oid)
            comp = comps[rmap.replica_component(rid)]
            loc = np.array([comp.local[v] for v in e_aug])
            comp.J[loc[:, None], loc] += term.J / r
            comp.h[loc] += term.h / r
        return GaussianAugmented(model, rmap, comps, stacks)

    raise ModelError(f"unsupported model type {type(model)!r}")


def build_augmented(model, config: DecompositionConfig | str | None = None, **kwargs):
    """Replicate `model` under `config` (see build_decomposition) and split
    its potentials over the replicas."""
    return split_potentials(model, build_decomposition(model.graph, config, **kwargs))


def lift_assignment(x, rmap: ReplicationMap) -> np.ndarray:
    x = np.asarray(x)
    if x.shape[0] != rmap.n_orig:
        raise ModelError("assignment length does not match original model")
    return x[rmap.vertex_origin]


def project_assignment(x_aug, rmap: ReplicationMap):
    """Collapse replicas; returns (assignment, violated original vertices)."""
    x_aug = np.asarray(x_aug)
    if x_aug.shape[0] != rmap.n_aug:
        raise ModelError("assignment length does not match augmented model")
    out = x_aug[rmap.first_replica]
    violated = np.unique(rmap.vertex_origin[x_aug != out[rmap.vertex_origin]])
    if violated.size:
        return None, violated.tolist()
    return out, []


def ensure_singletons(model: DiscreteFactorModel) -> DiscreteFactorModel:
    """Give every vertex an explicit singleton term (theta 0 if absent).

    Node-class dual updates adjust singleton tables, so the augmented model
    needs a singleton slot at every vertex.
    """
    coeffs = dict(model.coefficients)
    changed = False
    for v in range(model.n):
        if (v,) not in coeffs:
            coeffs[(v,)] = 0.0
            changed = True
    if not changed:
        return model
    graph = Hypergraph(model.n, tuple(coeffs))
    return DiscreteFactorModel(graph, coeffs)
