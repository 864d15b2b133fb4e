"""Signed adjacency graphs, cycles, travelings, and cycle functionals.

A cycle is identified with its edge set (a connected 2-regular set of
unordered pairs).  A traveling of a cycle is any oriented cycle of the
graph on the same vertex set, so on dense graphs the traveling sum
depends on the vertex set only.  Oriented cycles are arc tuples starting
at the smallest vertex.  All vertices are 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import CapabilityError, DimensionError, NotDenseError
from .kernel import SignedKernel, normalize_subset
from .moments import exact_minors

Edge = tuple[int, int]
Cycle = tuple[Edge, ...]
OrientedCycle = tuple[tuple[int, int], ...]

TRAVELING_LIMIT = 8  # (m-1)! oriented cycles per vertex set; 7! is the ceiling
MINOR_MATCH_LIMIT = 14
MINOR_MATCH_TOL = 1e-9


def edge(i: int, j: int) -> Edge:
    if i == j:
        raise DimensionError(f"self-loop ({i},{j}) is not an edge")
    return (i, j) if i < j else (j, i)


@dataclass
class SignedGraph:
    """Undirected graph on {1..n} with a sign in {-1,+1} on every edge."""

    n: int
    edges: dict[Edge, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), s in self.edges.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise DimensionError(f"edge ({i},{j}) out of range 1..{self.n}")
            if s not in (-1, 1):
                raise DimensionError(f"edge ({i},{j}) has sign {s}, expected -1 or +1")
            clean[edge(i, j)] = int(s)
        self.edges = clean

    def has_edge(self, i: int, j: int) -> bool:
        return edge(i, j) in self.edges

    def sign(self, i: int, j: int) -> int:
        e = edge(i, j)
        if e not in self.edges:
            raise DimensionError(f"no edge {e} in the graph")
        return self.edges[e]

    def is_complete_on(self, vertices: Sequence[int]) -> bool:
        return all(self.has_edge(a, b)
                   for a, b in itertools.combinations(vertices, 2))


def signed_adjacency(k: SignedKernel) -> SignedGraph:
    """Graph with an edge wherever K_ij != 0, labeled by the relating sign."""
    k.require_signed()
    edges = {}
    for i in range(1, k.n + 1):
        for j in range(i + 1, k.n + 1):
            if k.entry(i, j) != 0.0:
                edges[(i, j)] = k.epsilon(i, j)
    return SignedGraph(k.n, edges)


# ---------------------------------------------------------------------------
# cycles

def as_cycle(edges: Iterable[Edge]) -> Cycle:
    """Canonicalize and validate an edge set as a simple cycle."""
    es = tuple(sorted(edge(i, j) for i, j in edges))
    if len(set(es)) != len(es):
        raise DimensionError("repeated edges in cycle")
    degree: dict[int, int] = {}
    for i, j in es:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    if not degree or any(d != 2 for d in degree.values()):
        raise DimensionError("cycle edges must cover every vertex exactly twice")
    # connectivity: walk from the smallest vertex
    adj: dict[int, list[int]] = {v: [] for v in degree}
    for i, j in es:
        adj[i].append(j)
        adj[j].append(i)
    start = min(degree)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != len(degree):
        raise DimensionError("cycle edges form more than one closed walk")
    return es


def cycle_vertices(c: Cycle) -> tuple[int, ...]:
    return tuple(sorted({v for e in c for v in e}))


def oriented_from_order(order: Sequence[int]) -> OrientedCycle:
    """Arc tuple of the closed walk visiting ``order``, starting at its min."""
    k = order.index(min(order))
    rotated = tuple(order[k:]) + tuple(order[:k])
    return tuple((rotated[t], rotated[(t + 1) % len(rotated)])
                 for t in range(len(rotated)))


def travelings(g: SignedGraph, c: Cycle) -> list[OrientedCycle]:
    """All oriented cycles of g on the vertex set of c, each listed once."""
    c = as_cycle(c)
    for e in c:
        if e not in g.edges:
            raise DimensionError(f"cycle edge {e} not present in the graph")
    return _travelings_on(g, cycle_vertices(c))


def _travelings_on(g: SignedGraph, vertices: Sequence[int]) -> list[OrientedCycle]:
    vs = tuple(sorted(vertices))
    m = len(vs)
    if m > TRAVELING_LIMIT:
        raise CapabilityError(
            f"traveling enumeration capped at {TRAVELING_LIMIT} vertices, got {m}")
    if m < 3:
        return []
    head, rest = vs[0], vs[1:]
    out = []
    for perm in itertools.permutations(rest):
        order = (head,) + perm
        if all(g.has_edge(order[t], order[(t + 1) % m]) for t in range(m)):
            out.append(oriented_from_order(order))
    return out


def epsilon_of_cycle(g: SignedGraph, c: Cycle) -> int:
    """Product of the edge signs along the cycle."""
    c = as_cycle(c)
    out = 1
    for i, j in c:
        out *= g.sign(i, j)
    return out


def pi_of_cycle(k: SignedKernel, c: Cycle) -> float:
    """Sum over all travelings of the oriented entry products."""
    g = signed_adjacency(k)
    c = as_cycle(c)
    for e in c:
        if e not in g.edges:
            raise DimensionError(f"cycle edge {e} not present in the adjacency graph")
    return _pi_over(k, g, cycle_vertices(c))


def pi_of_subset(k: SignedKernel, s: Iterable[int]) -> float:
    """Traveling sum over a vertex set (the dense-case reading of pi)."""
    vs = normalize_subset(s, k.n, allow_empty=False)
    return _pi_over(k, signed_adjacency(k), vs)


def _pi_over(k: SignedKernel, g: SignedGraph, vs: Sequence[int]) -> float:
    total = 0.0
    for oc in _travelings_on(g, vs):
        prod = 1.0
        for a, b in oc:
            prod *= k.entry(a, b)
        total += prod
    return total


def oriented_product(k: SignedKernel, oc: OrientedCycle) -> float:
    """Product of kernel entries along one oriented cycle."""
    prod = 1.0
    for a, b in oc:
        prod *= k.entry(a, b)
    return prod


def hamiltonian_cycles(g: SignedGraph, vertices: Sequence[int]) -> list[Cycle]:
    """Undirected cycles of g covering the vertex set, canonical and sorted."""
    seen = set()
    for oc in _travelings_on(g, tuple(vertices)):
        seen.add(tuple(sorted(edge(a, b) for a, b in oc)))
    return sorted(seen)


def positive_triangles(g: SignedGraph) -> list[tuple[int, int, int]]:
    """Triangles whose sign product is +1 (the only ones carrying signs)."""
    out = []
    for i, j, k in itertools.combinations(range(1, g.n + 1), 3):
        if (g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k)
                and g.sign(i, j) * g.sign(j, k) * g.sign(i, k) == 1):
            out.append((i, j, k))
    return out


def positive_four_cycles(g: SignedGraph, s: Sequence[int]) -> list[Cycle]:
    """The positive Hamiltonian 4-cycles on a 4-clique."""
    vs = tuple(sorted(s))
    if len(vs) != 4 or len(set(vs)) != 4:
        raise DimensionError(f"expected 4 distinct vertices, got {s}")
    if not g.is_complete_on(vs):
        raise NotDenseError(f"vertices {vs} do not induce a complete subgraph")
    return [c for c in hamiltonian_cycles(g, vs) if epsilon_of_cycle(g, c) == 1]


# ---------------------------------------------------------------------------
# the grouped determinant expansion

def set_partitions(items: Sequence[int]):
    """Yield all partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for t in range(len(part)):
            yield part[:t] + [[head] + part[t]] + part[t + 1:]
        yield [[head]] + part


def det_from_cycle_data(k: SignedKernel, j: Iterable[int]) -> float:
    """det(K_J) rebuilt from diagonal, squared magnitudes, edge signs and
    traveling sums, by grouping permutations over the supports of their
    cyclic factors.

    The blocks of a set partition contribute K_aa (singleton),
    -eps_ab |K_ab|^2 (pair), and (-1)^{|B|-1} pi(B) otherwise.
    """
    k.require_signed()
    vs = normalize_subset(j, k.n)
    g = signed_adjacency(k)
    total = 0.0
    for part in set_partitions(vs):
        term = 1.0
        for block in part:
            if len(block) == 1:
                term *= k.entry(block[0], block[0])
            elif len(block) == 2:
                a, b = block
                kab = k.entry(a, b)
                if kab == 0.0:
                    term = 0.0
                    break
                term *= -k.epsilon(a, b) * kab * kab
            else:
                pi = _pi_over(k, g, block)
                if pi == 0.0:
                    term = 0.0
                    break
                term *= (-1.0) ** (len(block) - 1) * pi
        total += term
    return total


# ---------------------------------------------------------------------------
# minor-list equivalence

def _minor_close(a: float, b: float, tol: float = MINOR_MATCH_TOL) -> bool:
    if abs(b) > tol:
        return abs(a - b) <= tol * abs(b)
    return abs(a - b) <= tol


def pma_equivalent(h: SignedKernel, k: SignedKernel) -> bool:
    """Same list of principal minors, checked exhaustively."""
    if h.n != k.n:
        raise DimensionError(f"dimension mismatch: {h.n} vs {k.n}")
    if h.n > MINOR_MATCH_LIMIT:
        raise CapabilityError(
            f"exhaustive minor comparison capped at N={MINOR_MATCH_LIMIT}, got {h.n}")
    mh = dict(exact_minors(h, "all").items())
    return all(_minor_close(mh[j], v) for j, v in exact_minors(k, "all").items())


def pma_equivalent_structural(h: SignedKernel, k: SignedKernel) -> bool:
    """Minor equality via its structural characterization: equal diagonals
    and off-diagonal magnitudes, identical signed adjacency graph, and
    equal traveling sums on every cycle vertex set."""
    if h.n != k.n:
        raise DimensionError(f"dimension mismatch: {h.n} vs {k.n}")
    n = h.n
    if n > TRAVELING_LIMIT:
        raise CapabilityError(
            f"structural comparison capped at N={TRAVELING_LIMIT}, got {n}")
    h.require_signed()
    k.require_signed()
    for i in range(1, n + 1):
        if not _minor_close(h.entry(i, i), k.entry(i, i)):
            return False
    gh, gk = signed_adjacency(h), signed_adjacency(k)
    if set(gh.edges) != set(gk.edges):
        return False
    for e in gk.edges:
        if gh.edges[e] != gk.edges[e]:
            return False
        if not _minor_close(abs(h.entry(*e)), abs(k.entry(*e))):
            return False
    for m in range(3, n + 1):
        for vs in itertools.combinations(range(1, n + 1), m):
            if not _travelings_on(gk, vs):
                continue
            if not _minor_close(_pi_over(h, gh, vs), _pi_over(k, gk, vs)):
                return False
    return True
