"""Theorem 6 and Corollary 2 — spanner-based advising schemes (Sec 4.3).

A BFS tree gives O(D)-flavoured time bounds, but the awake distance
rho_awk can be much smaller than D.  Flooding over a *(2k-1)-spanner* H
wakes every node within (2k-1) * rho_awk hops of the awake set while
touching only |E(H)| = O(k n^{1+1/k}) edges.  The remaining question is
how a KT0 node learns its incident spanner edges cheaply — answered by
reusing the child-encoding idea on each node's spanner neighborhood:

For every node v, the oracle orders v's spanner neighbors
u_1, ..., u_s by v's port numbers and heap-structures them; v's advice
carries the port to u_1, and each u_i's advice carries — keyed by
*u_i's port back to v*, which is how u_i recognizes which host probed
it — the pair of ports at v leading to u_{2i} and u_{2i+1}.

Protocol: every node, upon waking (any cause), probes its first spanner
neighbor; a ``next`` reply reveals two more ports to probe, and so on.
A probed node is awake (the probe woke it if necessary) and runs the
same discovery for its own neighborhood, so the wake wave floods H.
Each spanner edge carries O(1) messages => O(k n^{1+1/k}) messages;
each neighborhood unfolds in O(log n) alternations over spanner paths
of stretch 2k-1 => O(k rho_awk log n) time.  Advice per node is
O((1 + spanner-degree) log n) bits — O(n^{1/k} log^2 n) on average
(paper Theorem 6; see DESIGN.md for the max-degree caveat).

Corollary 2 is the k = ceil(log2 n) instantiation: the spanner has
O(n) edges and stretch O(log n), giving O(rho_awk log^2 n) time,
O(n log^2 n) messages, and O(log^2 n) advice.

Model: asynchronous KT0 CONGEST.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.advice.bits import BitReader, BitWriter, Bits
from repro.advice.oracle import AdviceMap
from repro.core.base import BOTH, AlgorithmBase, WakeUpAlgorithm
from repro.graphs.graph import Graph
from repro.graphs.spanner import (
    baswana_sen_spanner,
    bfs_tree_spanner,
    greedy_spanner,
)
from repro.models.knowledge import NetworkSetup
from repro.obs.phases import phased
from repro.sim.node import NodeAlgorithm, NodeContext

SPROBE = "sp-probe"
SNEXT = "sp-next"
# Every probe is this one object, so the engine measures its size once.
PROBE = (SPROBE,)

# Profiling phases (docs/observability.md): gamma-decoding the oracle
# advice vs the probe/next discovery traffic over the spanner.
PHASE_ADVICE_DECODE = "advice-decode"
PHASE_SPANNER_PROBE = "spanner-probe"


def encode_spanner_advice(
    first_port: Optional[int],
    entries: List[Tuple[int, Optional[int], Optional[int]]],
) -> Bits:
    """Encode (fc, [(host_port, next1, next2), ...]); gamma-coded.

    ``host_port`` is this node's own port leading to the host whose
    sibling structure the entry belongs to; ``next1``/``next2`` are
    ports at the host (0-free: None encoded as flag 0).
    """
    w = BitWriter()
    w.write_opt_gamma(first_port)
    w.write_gamma0(len(entries))
    for host_port, n1, n2 in entries:
        w.write_gamma(host_port).write_opt_gamma(n1).write_opt_gamma(n2)
    return w.getvalue()


def decode_spanner_advice(bits: Bits):
    r = BitReader(bits)
    first = r.read_opt_gamma()
    entries: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
    for _ in range(r.read_gamma0()):
        host_port = r.read_gamma()
        entries[host_port] = (r.read_opt_gamma(), r.read_opt_gamma())
    return first, entries


def spanner_cen_advice(setup: NetworkSetup, spanner: Graph) -> AdviceMap:
    """Child-encode every node's spanner neighborhood."""
    ports = setup.ports
    has_edge = spanner.has_edge
    first_port: Dict = {}
    entry_lists: Dict = {v: [] for v in setup.graph.vertices()}
    for v in setup.graph.vertices():
        neighbors, back_ports = ports.table(v)
        # (port at v, spanner neighbour, its port back to v)
        nbrs = [
            (p, u, back)
            for p, (u, back) in enumerate(zip(neighbors, back_ports), 1)
            if has_edge(v, u)
        ]
        s = len(nbrs)
        first_port[v] = nbrs[0][0] if nbrs else None
        for i, (_, u, back) in enumerate(nbrs, start=1):
            n1 = nbrs[2 * i - 1][0] if 2 * i <= s else None
            n2 = nbrs[2 * i][0] if 2 * i + 1 <= s else None
            entry_lists[u].append((back, n1, n2))
    return AdviceMap(
        {
            v: encode_spanner_advice(first_port[v], entry_lists[v])
            for v in setup.graph.vertices()
        }
    )


class _SpannerNode(AlgorithmBase, NodeAlgorithm):
    phases = (PHASE_ADVICE_DECODE, PHASE_SPANNER_PROBE)

    def __init__(self) -> None:
        self._first: Optional[int] = None
        self._entries: Dict[int, Tuple[Optional[int], Optional[int]]] = {}

    @phased(PHASE_ADVICE_DECODE)
    def _decode(self, ctx: NodeContext) -> None:
        self._first, self._entries = decode_spanner_advice(ctx.advice)

    @phased(PHASE_SPANNER_PROBE)
    def _first_probe(self, ctx: NodeContext) -> None:
        ctx.send(self._first, PROBE)

    def on_wake(self, ctx: NodeContext) -> None:
        # Spanner flooding is symmetric: every node, however woken,
        # discovers and pings its whole spanner neighborhood.  Every
        # lane runs on_wake before the node's first on_message.
        self._decode(ctx)
        if self._first is not None:
            self._first_probe(ctx)

    @phased(PHASE_SPANNER_PROBE)
    def on_message(self, ctx: NodeContext, port: int, payload: Any) -> None:
        tag = payload[0]
        if tag == SPROBE:
            n1, n2 = self._entries.get(port, (None, None))
            ctx.send(port, (SNEXT, n1 or 0, n2 or 0))
        elif tag == SNEXT:
            _, n1, n2 = payload
            if n1:
                ctx.send(n1, PROBE)
            if n2:
                ctx.send(n2, PROBE)


class SpannerAdvice(WakeUpAlgorithm):
    """Theorem 6: O(k rho_awk log n) time, O(k n^{1+1/k}) messages,
    O(n^{1/k} log^2 n) advice; async KT0 CONGEST."""

    name = "spanner-advice"
    synchrony = BOTH
    requires_kt1 = False
    uses_advice = True
    congest_safe = True
    phases = _SpannerNode.phases

    def __init__(
        self, k: int = 3, spanner_seed: int = 0, method: str = "baswana-sen"
    ):
        if k < 1:
            raise ValueError("spanner parameter k must be >= 1")
        if method not in ("baswana-sen", "greedy"):
            raise ValueError(f"unknown spanner method {method!r}")
        self.k = k
        self.method = method
        self._spanner_seed = spanner_seed
        self.last_spanner: Optional[Graph] = None

    def _build_spanner(self, setup: NetworkSetup) -> Graph:
        from repro.graphs.compile import cached_spanner

        if self.method == "greedy":
            # Deterministic, matching the determinism claimed by
            # Theorem 6 (the oracle is allowed unlimited computation).
            return cached_spanner(
                setup.graph,
                "greedy",
                {"k": self.k},
                lambda g: greedy_spanner(g, self.k),
            )
        if isinstance(self._spanner_seed, int):
            # Deterministic in (graph, k, seed): safe to memoize per
            # compiled topology.  A live Random instance is stateful,
            # so that variant always rebuilds.
            return cached_spanner(
                setup.graph,
                "baswana-sen",
                {"k": self.k, "seed": self._spanner_seed},
                lambda g: baswana_sen_spanner(
                    g, self.k, seed=self._spanner_seed
                ),
            )
        return baswana_sen_spanner(
            setup.graph, self.k, seed=self._spanner_seed
        )

    def compute_advice(self, setup: NetworkSetup) -> AdviceMap:
        spanner = self._build_spanner(setup)
        self.last_spanner = spanner
        return spanner_cen_advice(setup, spanner)

    def make_node(self, vertex, setup) -> NodeAlgorithm:
        return _SpannerNode()


class LogSpannerAdvice(SpannerAdvice):
    """Corollary 2: SpannerAdvice at k = ceil(log2 n) — O(log^2 n)
    advice, O(n log^2 n) messages, O(rho_awk log^2 n) time."""

    name = "log-spanner-advice"

    def __init__(self, spanner_seed: int = 0, method: str = "baswana-sen"):
        # k is resolved per-setup; initialize with a placeholder.
        super().__init__(k=2, spanner_seed=spanner_seed, method=method)

    def _build_spanner(self, setup: NetworkSetup) -> Graph:
        self.k = max(2, math.ceil(math.log2(max(2, setup.n))))
        return super()._build_spanner(setup)


class TreeSpannerAdvice(SpannerAdvice):
    """Ablation: the same discovery protocol over a BFS-tree 'spanner'
    (n - 1 edges, stretch up to the diameter).  Separates the cost of
    the discovery mechanism from the benefit of the spanner's stretch."""

    name = "tree-spanner-advice"

    def _build_spanner(self, setup: NetworkSetup) -> Graph:
        from repro.graphs.compile import cached_spanner

        return cached_spanner(
            setup.graph, "bfs-tree", {}, bfs_tree_spanner
        )
