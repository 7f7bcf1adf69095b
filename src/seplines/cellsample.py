"""Counting and uniformly sampling arrangement vertices inside a convex
cell, via a counterclockwise boundary sweep over the lines' crossing
events and a persistent order-statistics tree; plus a mass-weighted cell
sampler.

A line crossing the cell interior meets the boundary at exactly two
points. Walking the boundary counterclockwise, two lines intersect inside
the cell iff their event intervals interleave (each contains exactly one
endpoint of the other). The sweep inserts a line at its first event and,
at its second event, counts the stored lines whose first event falls
strictly inside the interval; a snapshot of the tree taken before each
deletion supports order-statistics selection for uniform sampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .geom import CanonicalLine, Point, orient, sign, splitmix64


class DegeneracyError(ValueError):
    """Coincident boundary events, a line through a cell vertex, or a line
    along a cell edge: configurations the sweep does not perturb around."""


class EmptyStructureError(ValueError):
    pass


MAX_CELL_VERTICES = 16


@dataclass(frozen=True)
class ConvexCell:
    """Strictly convex polygon given by its counterclockwise vertices."""

    vertices: Tuple[Point, ...]

    def __init__(self, vertices: Sequence[Point]):
        object.__setattr__(self, "vertices", tuple(vertices))
        t = self.vertices
        if not 3 <= len(t) <= MAX_CELL_VERTICES:
            raise ValueError(
                f"cell must have 3..{MAX_CELL_VERTICES} vertices, got {len(t)}"
            )
        k = len(t)
        for i in range(k):
            if orient(t[i], t[(i + 1) % k], t[(i + 2) % k]) != 1:
                raise ValueError("cell vertices must be strictly convex ccw")

    def edges(self) -> List[Tuple[Point, Point]]:
        t = self.vertices
        return [(t[i], t[(i + 1) % len(t)]) for i in range(len(t))]


# ---------------------------------------------------------------------------
# persistent order-statistics treap (path copying)


@dataclass(frozen=True)
class _Node:
    key: int
    prio: int
    left: Optional["_Node"]
    right: Optional["_Node"]
    size: int


def _mk(key: int, prio: int, left, right) -> _Node:
    return _Node(key, prio, left, right, 1 + _size(left) + _size(right))


def _size(node: Optional[_Node]) -> int:
    return node.size if node is not None else 0


def _split(node: Optional[_Node], key: int):
    """(keys < key, keys >= key), copying the search path."""
    if node is None:
        return None, None
    if node.key < key:
        l, r = _split(node.right, key)
        return _mk(node.key, node.prio, node.left, l), r
    l, r = _split(node.left, key)
    return l, _mk(node.key, node.prio, r, node.right)


def _merge(a: Optional[_Node], b: Optional[_Node]) -> Optional[_Node]:
    if a is None:
        return b
    if b is None:
        return a
    if a.prio >= b.prio:
        return _mk(a.key, a.prio, a.left, _merge(a.right, b))
    return _mk(b.key, b.prio, _merge(a, b.left), b.right)


def _insert(node: Optional[_Node], key: int) -> _Node:
    l, r = _split(node, key)
    return _merge(_merge(l, _mk(key, splitmix64(key), None, None)), r)


def _delete(node: Optional[_Node], key: int) -> Optional[_Node]:
    l, rest = _split(node, key)
    _, r = _split(rest, key + 1)
    return _merge(l, r)


def _count_less(node: Optional[_Node], key: int) -> int:
    c = 0
    while node is not None:
        if node.key < key:
            c += _size(node.left) + 1
            node = node.right
        else:
            node = node.left
    return c


def _select(node: Optional[_Node], idx: int) -> int:
    """Key with rank idx (0-based) among the node's keys."""
    while node is not None:
        ls = _size(node.left)
        if idx < ls:
            node = node.left
        elif idx == ls:
            return node.key
        else:
            idx -= ls + 1
            node = node.right
    raise IndexError("select index out of range")


# ---------------------------------------------------------------------------
# crossing events and the index


@dataclass(frozen=True)
class CrossingEvent:
    edge: int
    t: Fraction  # position along the edge, strictly in (0, 1)
    line_id: int

    def position(self) -> Tuple[int, Fraction]:
        return (self.edge, self.t)


@dataclass
class CrossingSequence:
    events: List[CrossingEvent]


@dataclass
class CellIntersectionIndex:
    cell: ConvexCell
    lines: List[CanonicalLine]
    sequence: CrossingSequence
    interval: Dict[int, Tuple[int, int]]  # line id -> (first rank, second rank)
    pair_count: Dict[int, int]
    snapshots: Dict[int, Optional[_Node]]  # line id -> tree before its deletion
    line_of_rank: Dict[int, int]  # first-event rank -> line id
    total_vertex_count: int


def _line_events(cell: ConvexCell, line: CanonicalLine, line_id: int) -> List[CrossingEvent]:
    vals = [line.eval_at(v) for v in cell.vertices]
    if any(v == 0 for v in vals):
        raise DegeneracyError(
            f"line {line} passes through a vertex of the cell (or along an edge)"
        )
    events = []
    k = len(vals)
    for e in range(k):
        va, vb = vals[e], vals[(e + 1) % k]
        if sign(va) * sign(vb) == -1:
            t = va / (va - vb)
            events.append(CrossingEvent(e, t, line_id))
    if len(events) not in (0, 2):
        raise DegeneracyError("inconsistent boundary crossing count")
    return events


def build_index(cell: ConvexCell, lines: Sequence[CanonicalLine]) -> CellIntersectionIndex:
    """Boundary sweep building the vertex-counting/sampling index.

    O(m log m): events are sorted counterclockwise; each line is inserted
    into a persistent treap (keyed by its first-event rank) at its first
    event; at its second event the lines stored with first event strictly
    inside the interval are counted (these are exactly the lines crossing
    it inside the cell) and the tree is snapshotted before deletion.
    """
    lines = list(lines)
    if len({l.coeffs() for l in lines}) != len(lines):
        raise ValueError("lines must be pairwise distinct")
    events: List[CrossingEvent] = []
    for i, line in enumerate(lines):
        events.extend(_line_events(cell, line, i))
    events.sort(key=lambda ev: (ev.edge, ev.t, ev.line_id))
    for a, b in zip(events, events[1:]):
        if a.position() == b.position():
            raise DegeneracyError(
                f"coincident boundary events for lines {lines[a.line_id]} "
                f"and {lines[b.line_id]}"
            )
    first_rank: Dict[int, int] = {}
    interval: Dict[int, Tuple[int, int]] = {}
    pair_count: Dict[int, int] = {}
    snapshots: Dict[int, Optional[_Node]] = {}
    line_of_rank: Dict[int, int] = {}
    root: Optional[_Node] = None
    total = 0
    for rank, ev in enumerate(events):
        lid = ev.line_id
        if lid not in first_rank:
            first_rank[lid] = rank
            line_of_rank[rank] = lid
            root = _insert(root, rank)
        else:
            i = first_rank[lid]
            interval[lid] = (i, rank)
            c = _count_less(root, rank) - _count_less(root, i + 1)
            pair_count[lid] = c
            total += c
            snapshots[lid] = root
            root = _delete(root, i)
    return CellIntersectionIndex(
        cell=cell,
        lines=lines,
        sequence=CrossingSequence(events),
        interval=interval,
        pair_count=pair_count,
        snapshots=snapshots,
        line_of_rank=line_of_rank,
        total_vertex_count=total,
    )


def count_vertices(index: CellIntersectionIndex) -> int:
    """Number of pairwise line intersections strictly inside the cell."""
    return index.total_vertex_count


def sample_vertex(index: CellIntersectionIndex, rng) -> Tuple[int, int]:
    """Uniformly random interior vertex, as an unordered pair of line ids.

    Picks a line with probability pair_count/total, then an order-statistic
    select in the snapshot taken at that line's second event. ``rng`` needs
    an ``integers(lo, hi)`` method (e.g. numpy Generator).
    """
    total = index.total_vertex_count
    if total < 1:
        raise EmptyStructureError("no interior vertices to sample")
    r = int(rng.integers(0, total))
    for lid, c in index.pair_count.items():
        if r < c:
            break
        r -= c
    i, j = index.interval[lid]
    snap = index.snapshots[lid]
    base = _count_less(snap, i + 1)
    key = _select(snap, base + r)
    other = index.line_of_rank[key]
    return (min(lid, other), max(lid, other))


def brute_force_vertex_count(cell: ConvexCell, lines: Sequence[CanonicalLine]) -> int:
    """O(m^2) oracle: count pairwise intersections strictly inside the cell.

    Works in homogeneous integer coordinates: the intersection of two integer
    lines is (b1*c2 - b2*c1, a2*c1 - a1*c2, a1*b2 - a2*b1), and the strict
    interior test reduces to integer sign checks against each edge once the
    cell vertices are cleared to a common denominator.
    """
    from .geom import common_denominator

    lines = list(lines)
    verts = cell.vertices
    k = len(verts)
    D = common_denominator(verts)
    vx = [int(v.x * D) for v in verts]
    vy = [int(v.y * D) for v in verts]
    edges = [
        (vx[(e + 1) % k] - vx[e], vy[(e + 1) % k] - vy[e], vx[e], vy[e])
        for e in range(k)
    ]
    coeffs = [l.coeffs() for l in lines]
    count = 0
    m = len(lines)
    for i in range(m):
        a1, b1, c1 = coeffs[i]
        for j in range(i + 1, m):
            a2, b2, c2 = coeffs[j]
            w = a1 * b2 - a2 * b1
            if w == 0:
                continue  # parallel (identical lines are also parallel)
            x = b1 * c2 - b2 * c1
            y = a2 * c1 - a1 * c2
            sw = 1 if w > 0 else -1
            for dx, dy, px, py in edges:
                # orient(edge start, edge end, intersection) > 0, with the
                # positive factors w*D and 1/D cleared; sw restores the sign
                # of the homogeneous scale w.
                if (dx * (y * D - py * w) - dy * (x * D - px * w)) * sw <= 0:
                    break
            else:
                count += 1
    return count


# ---------------------------------------------------------------------------
# mass-weighted cell sampling


@dataclass
class _MassNode:
    cell_id: int
    prio: int
    support: int
    depth: int
    left: Optional["_MassNode"] = None
    right: Optional["_MassNode"] = None
    subtree_mass: float = 0.0

    @property
    def mass(self) -> float:
        return self.support * 2.0 ** self.depth


def _m_mass(node: Optional[_MassNode]) -> float:
    return node.subtree_mass if node is not None else 0.0


def _m_fix(node: _MassNode) -> _MassNode:
    node.subtree_mass = node.mass + _m_mass(node.left) + _m_mass(node.right)
    return node


class MassTree:
    """Search tree keyed by cell id with per-cell mass support * 2^depth;
    subtree masses cached for random root-to-leaf descent sampling.
    Single-writer; ``depth`` is maintained by the caller."""

    def __init__(self):
        self._root: Optional[_MassNode] = None

    def total_mass(self) -> float:
        return _m_mass(self._root)

    def __contains__(self, cell_id: int) -> bool:
        node = self._root
        while node is not None:
            if cell_id == node.cell_id:
                return True
            node = node.left if cell_id < node.cell_id else node.right
        return False

    def insert(self, cell_id: int, support: int, depth: int) -> None:
        if support < 0:
            raise ValueError("support must be non-negative")
        if cell_id in self:
            raise ValueError(f"cell {cell_id} already present")
        node = _MassNode(cell_id, splitmix64(cell_id), support, depth)
        self._root = self._insert(self._root, node)

    def update(self, cell_id: int, support: int, depth: int) -> None:
        node = self._root
        path = []
        while node is not None and node.cell_id != cell_id:
            path.append(node)
            node = node.left if cell_id < node.cell_id else node.right
        if node is None:
            raise KeyError(f"cell {cell_id} not in tree")
        node.support, node.depth = support, depth
        _m_fix(node)
        for p in reversed(path):
            _m_fix(p)

    def remove(self, cell_id: int) -> None:
        if cell_id not in self:
            raise KeyError(f"cell {cell_id} not in tree")
        self._root = self._remove(self._root, cell_id)

    def sample_cell(self, rng) -> int:
        """Cell id with probability mass/total, by random descent. ``rng``
        needs a ``random()`` method returning a float in [0, 1)."""
        node = self._root
        if node is None or node.subtree_mass <= 0:
            raise EmptyStructureError("mass tree empty or massless")
        while True:
            r = rng.random() * node.subtree_mass
            lm = _m_mass(node.left)
            if r < lm and node.left is not None:
                node = node.left
            elif r < lm + node.mass or (node.right is None or _m_mass(node.right) <= 0):
                if node.mass > 0:
                    return node.cell_id
                node = node.left  # all mass on the left (numeric edge)
            else:
                node = node.right

    # -- treap internals (mutating, not persistent) --

    def _insert(self, node: Optional[_MassNode], new: _MassNode) -> _MassNode:
        if node is None:
            return _m_fix(new)
        if new.prio > node.prio:
            new.left, new.right = self._split(node, new.cell_id)
            return _m_fix(new)
        if new.cell_id < node.cell_id:
            node.left = self._insert(node.left, new)
        else:
            node.right = self._insert(node.right, new)
        return _m_fix(node)

    def _split(self, node: Optional[_MassNode], cell_id: int):
        if node is None:
            return None, None
        if node.cell_id < cell_id:
            l, r = self._split(node.right, cell_id)
            node.right = l
            return _m_fix(node), r
        l, r = self._split(node.left, cell_id)
        node.left = r
        return l, _m_fix(node)

    def _remove(self, node: Optional[_MassNode], cell_id: int) -> Optional[_MassNode]:
        if node is None:
            return None
        if node.cell_id == cell_id:
            return self._merge(node.left, node.right)
        if cell_id < node.cell_id:
            node.left = self._remove(node.left, cell_id)
        else:
            node.right = self._remove(node.right, cell_id)
        return _m_fix(node)

    def _merge(self, a: Optional[_MassNode], b: Optional[_MassNode]):
        if a is None:
            return b
        if b is None:
            return a
        if a.prio >= b.prio:
            a.right = self._merge(a.right, b)
            return _m_fix(a)
        b.left = self._merge(a, b.left)
        return _m_fix(b)


def mass_tree_insert(tree: MassTree, cell_id: int, support: int, depth: int) -> None:
    tree.insert(cell_id, support, depth)


def mass_tree_update(tree: MassTree, cell_id: int, support: int, depth: int) -> None:
    tree.update(cell_id, support, depth)


def mass_tree_remove(tree: MassTree, cell_id: int) -> None:
    tree.remove(cell_id)


def sample_cell(tree: MassTree, rng) -> int:
    return tree.sample_cell(rng)
