"""Every automorphism of a small graph, as a test oracle for Aut(G).

Adjacency is one int bitmask per vertex.  Colour refinement, starting from
the degrees, splits the vertices into classes that every automorphism
preserves.  Vertices are placed in an order that follows adjacency, and a
vertex's image is tried only within its class and only where its edges to
the vertices already placed match the images' edges.
"""

from __future__ import annotations

from typing import Iterator

from bks33.orthograph import OrthoGraph


def _refine(adj: dict[int, int]) -> dict[int, int]:
    """Stable colour of each vertex: degree first, then repeatedly the sorted
    colours of its neighbours, until the number of colours stops growing."""
    colour = {v: mask.bit_count() for v, mask in adj.items()}
    while True:
        signature = {
            v: (colour[v], tuple(sorted(colour[u] for u in adj if adj[v] >> u & 1)))
            for v in adj
        }
        ids = {s: i for i, s in enumerate(sorted(set(signature.values())))}
        refined = {v: ids[signature[v]] for v in adj}
        if len(ids) == len(set(colour.values())):
            return refined
        colour = refined


def automorphisms(g: OrthoGraph) -> Iterator[dict[int, int]]:
    """Yield each automorphism of ``g`` once, as a dict vertex -> image."""
    adj = dict.fromkeys(g.vertices, 0)
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    colour = _refine(adj)
    order: list[int] = []
    for start in sorted(g.vertices, key=lambda v: (colour[v], v)):
        frontier = [start]
        while frontier:
            v = frontier.pop(0)
            if v not in order:
                order.append(v)
                frontier.extend(sorted(u for u in adj if adj[v] >> u & 1))
    image: dict[int, int] = {}

    def extend(depth: int, used: int) -> Iterator[dict[int, int]]:
        if depth == len(order):
            yield dict(image)
            return
        v = order[depth]
        placed = order[:depth]
        for w in g.vertices:
            if used >> w & 1 or colour[w] != colour[v]:
                continue
            if all((adj[v] >> u & 1) == (adj[w] >> image[u] & 1) for u in placed):
                image[v] = w
                yield from extend(depth + 1, used | 1 << w)
                del image[v]

    yield from extend(0, 0)
