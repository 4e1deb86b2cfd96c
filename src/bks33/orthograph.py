"""Orthogonality graphs, triad/dyad decomposition, and rotation-induced permutations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Protocol, Sequence

Edge = tuple[int, int]
IndexPermutation = dict[int, int]
RotationMatrix = tuple[tuple[int, int, int], ...]

CATALOG_SIZE = 33


class AmbiguousDecompositionError(ValueError):
    """Raised when an edge lies in two distinct triangles."""


class NotClosedError(ValueError):
    """Raised when a rotation does not map a catalog onto itself."""


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class OrthoGraph:
    """Undirected graph on catalog indices with orthogonal pairs as edges,
    each edge a pair (u, v) with u < v."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def delete_vertex(self, v: int) -> OrthoGraph:
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in graph")
        return OrthoGraph(
            self.vertices - {v},
            frozenset(e for e in self.edges if v not in e),
        )


@dataclass(frozen=True)
class ConstraintSet:
    """A diagram's triads, each taking exactly one green ray, and its dyads,
    each taking at most one, over its vertex set.  From a graph, every edge
    lies in exactly one of them."""

    triads: tuple[tuple[int, int, int], ...]
    dyads: tuple[Edge, ...]
    vertices: frozenset[int]

    @classmethod
    def from_graph(cls, g: OrthoGraph) -> ConstraintSet:
        """``decompose`` under a second name; ``perfbench/`` is its only caller."""
        return decompose(g)

    def edges(self) -> frozenset[Edge]:
        out: set[Edge] = set(self.dyads)
        for a, b, c in self.triads:
            out.update(((a, b), (a, c), (b, c)))
        return frozenset(out)


class Entry(Protocol):
    """A catalog entry: a ``Ray`` or an ``MPair``."""

    def key(self) -> Hashable:
        """Canonical form, equal for entries naming the same ray."""

    def rotated(self, m: RotationMatrix) -> Entry:
        """Image under an integer rotation matrix."""

    @classmethod
    def orthogonal_pairs(cls, entries: Sequence[Entry]) -> list[Edge]:
        """Every orthogonal pair (i, j), i < j, of 1-based positions in
        ``entries``: exact for exact entries, within ``scalar.DEFAULT_TOL``
        otherwise."""


Catalog = Sequence[Entry]


def build_graph(catalog: Catalog) -> OrthoGraph:
    """Orthogonality graph of a 33-entry catalog of rays or M-vector pairs."""
    items = list(catalog)
    if len(items) != CATALOG_SIZE:
        raise ValueError(f"expected {CATALOG_SIZE} catalog entries, got {len(items)}")
    edges = frozenset(items[0].orthogonal_pairs(items))
    return OrthoGraph(frozenset(range(1, CATALOG_SIZE + 1)), edges)


def decompose(g: OrthoGraph) -> ConstraintSet:
    """Triads are the triangles; dyads the edges in no triangle.

    One pass over the sorted edges classes each edge (u, v) by its common
    neighbors, an int bitmask with bit w for vertex w: none makes it a
    dyad; one, w, puts it in triad (u, v, w), taken here when w > v; two
    or more raise, since then the exactly-once edge cover would not exist.
    Triads and dyads thus come out sorted.
    """
    adj = dict.fromkeys(g.vertices, 0)
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    triads = []
    dyads = []
    for u, v in sorted(g.edges):
        common = adj[u] & adj[v]
        if not common:
            dyads.append((u, v))
        elif common & (common - 1):
            raise AmbiguousDecompositionError(
                f"edge {(u, v)} lies in two distinct triangles"
            )
        elif common > 1 << v:
            triads.append((u, v, common.bit_length() - 1))
    return ConstraintSet(tuple(triads), tuple(dyads), g.vertices)


# Published orthogonality table shared by the real and complex catalogs:
# 16 triads and 24 dyads.
_REFERENCE_TRIADS: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3), (1, 4, 5), (1, 26, 33), (1, 29, 30),
    (2, 6, 7), (2, 22, 32), (2, 25, 31), (3, 8, 9),
    (3, 23, 28), (3, 24, 27), (4, 10, 13), (5, 11, 12),
    (6, 14, 17), (7, 15, 16), (8, 18, 21), (9, 19, 20),
)

_REFERENCE_DYADS: tuple[Edge, ...] = (
    (10, 24), (10, 25), (11, 23), (11, 25),
    (12, 22), (12, 24), (13, 22), (13, 23),
    (14, 28), (14, 29), (15, 27), (15, 29),
    (16, 26), (16, 28), (17, 26), (17, 27),
    (18, 32), (18, 33), (19, 31), (19, 33),
    (20, 30), (20, 32), (21, 30), (21, 31),
)


def reference_decomposition() -> ConstraintSet:
    """The published 16-triad / 24-dyad table, transcribed verbatim."""
    return ConstraintSet(
        _REFERENCE_TRIADS, _REFERENCE_DYADS, frozenset(range(1, CATALOG_SIZE + 1))
    )


def reference_graph() -> OrthoGraph:
    d = reference_decomposition()
    return OrthoGraph(d.vertices, d.edges())


#: 120-degree rotation about the (1,1,1) axis: x -> y -> z -> x.
ROTATION_111: RotationMatrix = ((0, 0, 1), (1, 0, 0), (0, 1, 0))

#: 90-degree rotation about the x-axis: y -> z -> -y.
X_QUARTER_TURN: RotationMatrix = ((1, 0, 0), (0, 0, -1), (0, 1, 0))


def key_index(catalog: Catalog) -> dict[Hashable, int]:
    """Each entry's canonical key, exact entries only, to its 1-based position."""
    return {entry.key(): j for j, entry in enumerate(catalog, start=1)}


def induced_permutation(rotation: RotationMatrix, catalog: Catalog,
                        index: dict[Hashable, int]) -> IndexPermutation:
    """Permutation pi with rotation * catalog[i] naming catalog[pi(i)].

    Entries are matched by canonical key: ``index`` is ``key_index(catalog)``,
    derived once by a caller that applies several rotations to the catalog.
    The matrix is not checked: callers pass ROTATION_111 or X_QUARTER_TURN.
    Raises NotClosedError if the rotation does not map the catalog onto
    itself, which includes a catalog that holds one entry twice.
    """
    perm: IndexPermutation = {}
    for i, entry in enumerate(catalog, start=1):
        image = index.get(entry.rotated(rotation).key())
        if image is None:
            raise NotClosedError(f"rotation image of entry {i} is not in the catalog")
        perm[i] = image
    if len(set(perm.values())) != len(perm):
        raise NotClosedError("rotation does not permute the catalog")
    return perm


def _pairs_same(p: Entry, q: Entry) -> bool:
    # Unused here; perfbench/bench_trace.py counts calls to it by name.
    return p.key() == q.key()


def is_automorphism(perm: IndexPermutation, g: OrthoGraph) -> bool:
    """True iff the permutation maps the edge set onto itself."""
    if set(perm) != g.vertices or set(perm.values()) != g.vertices:
        return False
    return all(_edge(perm[u], perm[v]) in g.edges for u, v in g.edges)
