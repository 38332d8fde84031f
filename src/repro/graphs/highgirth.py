"""Lazebnik–Ustimenko high-girth bipartite graphs D(k, q).

The paper's KT1 lower-bound class 𝒢ₖ (Sec 2.2) needs an
``n^(1/k)``-regular bipartite graph on n + n vertices with girth at
least ``k + 5`` and Ω(n^(1+1/k)) edges, citing Lazebnik and Ustimenko
[LUW95].  This module implements that construction from scratch.

Construction
------------
Fix a prime power q and k >= 2.  Points P and lines L are both copies
of GF(q)^k.  Writing point coordinates in the canonical order

    (p_1, p_11, p_12, p_21, p_22, p'_22, p_23, p_32, p_33, p'_33, ...)

(and lines likewise), point ``p`` and line ``l`` are adjacent iff the
first k - 1 of the following relations hold (relations addressing
coordinates beyond index k are dropped):

    l_11  - p_11  = l_1 * p_1
    l_12  - p_12  = l_11 * p_1
    l_21  - p_21  = l_1 * p_11
    l_ii  - p_ii  = l_1 * p_{i-1,i}          (i >= 2)
    l'_ii - p'_ii = l_{i,i-1} * p_1          (i >= 2)
    l_{i,i+1} - p_{i,i+1} = l_ii * p_1       (i >= 2)
    l_{i+1,i} - p_{i+1,i} = l_1 * p'_ii      (i >= 2)

Every relation expresses coordinate j of one side in terms of
coordinate j of the other side plus a product of strictly earlier
coordinates, so fixing a point and the free line coordinate ``l_1``
determines the unique incident line with that first coordinate (and
symmetrically).  Hence D(k, q) is q-regular bipartite with q^k vertices
per side.  [LUW95] prove girth(D(k, q)) >= k + 5 for odd k >= 3; we
re-verify this by exhaustive BFS for every small instance in the tests.

Vertices are labeled ``("P", coords)`` and ``("L", coords)`` with
``coords`` a tuple of field elements (integers in range(q)).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.galois import GF, factor_prime_power, get_field, is_prime
from repro.graphs.graph import Graph

PointLabel = Tuple[str, Tuple[int, ...]]


def _equation_table(k: int) -> List[Tuple[int, int]]:
    """Product terms of the incidence equations for coordinates 2..k.

    Returns a list where entry ``j - 2`` (for coordinate position j,
    1-indexed) is ``(l_pos, p_pos)``: the equation at position j reads

        l[j] = p[j] + l[l_pos] * p[p_pos]

    with all positions 1-indexed and strictly less than j.
    """
    if k < 2:
        raise GraphError("D(k, q) requires k >= 2")
    # Position helpers (1-indexed), derived from the canonical coordinate
    # order: block i >= 2 occupies positions 4i-3 .. 4i as
    # (p_ii, p'_ii, p_{i,i+1}, p_{i+1,i}).
    def pos_prev_super(i: int) -> int:  # position of p_{i-1, i}
        return 3 if i == 2 else 4 * i - 5

    def pos_prev_sub(i: int) -> int:  # position of l_{i, i-1}
        return 4 if i == 2 else 4 * i - 4

    table: List[Tuple[int, int]] = []
    for j in range(2, k + 1):
        if j == 2:
            table.append((1, 1))  # l_11 = p_11 + l_1 p_1
        elif j == 3:
            table.append((2, 1))  # l_12 = p_12 + l_11 p_1
        elif j == 4:
            table.append((1, 2))  # l_21 = p_21 + l_1 p_11
        else:
            i, r = divmod(j + 3, 4)  # j = 4i-3+offset, offset = r mapping
            # j = 4i-3 -> (j+3) = 4i, r == 0 -> p_ii equation
            # j = 4i-2 -> r == 1 -> p'_ii ; j = 4i-1 -> r == 2 ; j = 4i -> r == 3
            if r == 0:
                table.append((1, pos_prev_super(i)))  # l_ii
            elif r == 1:
                table.append((pos_prev_sub(i), 1))  # l'_ii
            elif r == 2:
                table.append((4 * i - 3, 1))  # l_{i,i+1}
            else:
                table.append((1, 4 * i - 2))  # l_{i+1,i}
    return table


class DkqGraph:
    """The bipartite Lazebnik–Ustimenko graph D(k, q) plus field context.

    Attributes
    ----------
    graph:
        The :class:`~repro.graphs.graph.Graph` instance.
    field:
        The :class:`~repro.graphs.galois.GF` arithmetic used.
    k, q:
        Construction parameters.
    points, lines:
        Vertex label lists for the two sides.
    """

    def __init__(self, k: int, q: int):
        if k < 2:
            raise GraphError("D(k, q) requires k >= 2")
        self.k = k
        self.q = q
        self.field = get_field(q)
        self._eqs = _equation_table(k)
        self.graph = self._build()
        self.points: List[PointLabel] = [
            v for v in self.graph.vertices() if v[0] == "P"
        ]
        self.lines: List[PointLabel] = [
            v for v in self.graph.vertices() if v[0] == "L"
        ]

    # ------------------------------------------------------------------
    def line_through(self, point: Sequence[int], l1: int) -> Tuple[int, ...]:
        """The unique line incident to ``point`` with first coordinate l1."""
        f = self.field
        line = [l1] + [0] * (self.k - 1)
        for j in range(2, self.k + 1):
            l_pos, p_pos = self._eqs[j - 2]
            prod = f.mul(line[l_pos - 1], point[p_pos - 1])
            line[j - 1] = f.add(point[j - 1], prod)
        return tuple(line)

    def point_on(self, line: Sequence[int], p1: int) -> Tuple[int, ...]:
        """The unique point incident to ``line`` with first coordinate p1."""
        f = self.field
        point = [p1] + [0] * (self.k - 1)
        for j in range(2, self.k + 1):
            l_pos, p_pos = self._eqs[j - 2]
            prod = f.mul(line[l_pos - 1], point[p_pos - 1])
            point[j - 1] = f.sub(line[j - 1], prod)
        return tuple(point)

    def incident(self, point: Sequence[int], line: Sequence[int]) -> bool:
        """Check the incidence relations directly (used for verification)."""
        f = self.field
        for j in range(2, self.k + 1):
            l_pos, p_pos = self._eqs[j - 2]
            lhs = f.sub(line[j - 1], point[j - 1])
            rhs = f.mul(line[l_pos - 1], point[p_pos - 1])
            if lhs != rhs:
                return False
        return True

    # ------------------------------------------------------------------
    def _all_tuples(self) -> Iterable[Tuple[int, ...]]:
        """Enumerate GF(q)^k in lexicographic order."""
        q, k = self.q, self.k
        coords = [0] * k
        while True:
            yield tuple(coords)
            i = k - 1
            while i >= 0 and coords[i] == q - 1:
                coords[i] = 0
                i -= 1
            if i < 0:
                return
            coords[i] += 1

    def _build(self) -> Graph:
        g = Graph()
        for pt in self._all_tuples():
            g.add_vertex(("P", pt))
        for ln in self._all_tuples():
            g.add_vertex(("L", ln))
        for pt in self._all_tuples():
            for l1 in range(self.q):
                ln = self.line_through(pt, l1)
                g.add_edge(("P", pt), ("L", ln))
        return g

    @property
    def guaranteed_girth(self) -> int:
        """The [LUW95] girth guarantee: k + 5 for odd k, k + 4 for even."""
        return self.k + 5 if self.k % 2 == 1 else self.k + 4

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"D(k={self.k}, q={self.q})"


def dkq_graph(k: int, q: int) -> DkqGraph:
    """Construct D(k, q), validating that q is a prime power."""
    factor_prime_power(q)  # raises FieldError if not a prime power
    return DkqGraph(k, q)


def usable_prime_powers(limit: int) -> List[int]:
    """Prime powers q <= limit, ascending (sizes usable for benches)."""
    return [q for q in range(2, limit + 1) if is_prime_power(q)]


@lru_cache(maxsize=None)
def smallest_prime_power_at_least(q_min: int) -> int:
    """Smallest prime power >= q_min (prime powers are dense enough that
    this terminates quickly for all practical inputs).  Memoized —
    every D(k, q) sizing query at a given n repeats this scan."""
    q = max(2, q_min)
    while not is_prime_power(q):
        q += 1
    return q


@lru_cache(maxsize=None)
def is_prime_power(q: int) -> bool:
    """Memoized prime-power test.  Cached here (rather than relying on
    :func:`factor_prime_power`'s cache) because ``lru_cache`` never
    caches raised exceptions — the *negative* answers are the ones that
    would otherwise re-run trial division every call."""
    try:
        factor_prime_power(q)
        return True
    except Exception:
        return False
