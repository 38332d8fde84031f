"""Corollary 1 — the [FIP06] BFS-tree advising scheme, sharpened.

The oracle roots a BFS tree at the minimum-ID node and tells every node
which of its ports are tree edges.  An awake node simply sends a wake
message over every tree port, once; since the tree has n - 1 edges and
each edge carries at most two messages, the message complexity is O(n),
and because the tree is a *BFS* tree the wake wave reaches everyone in
O(D) time from any awake set.

The encoding realizes the Appendix-B refinement of the paper: each node
gets whichever of the following is shorter —

* an explicit **port list** (tree-degree many port numbers, each
  ceil(log2(deg + 1)) bits), or
* a **bitmap** over its deg ports (1 bit per port),

prefixed by a one-bit selector.  The bitmap caps the maximum advice at
deg(v) + O(1) <= n + O(1) bits, and the port list keeps the *total*
advice at O(n log n) bits (each tree edge is named twice, at log-n cost
each), hence the average is O(log n) — exactly Corollary 1's bounds.

Model: asynchronous KT0 CONGEST (messages are constant-size tags).
"""

from __future__ import annotations

from typing import Any, List

from repro.advice.bits import BitReader, BitWriter, Bits, gamma_cost
from repro.advice.oracle import AdviceMap
from repro.core.base import BOTH, WakeUpAlgorithm
from repro.core.tree_util import OracleTree
from repro.models.knowledge import NetworkSetup
from repro.sim.node import NodeAlgorithm, NodeContext

WAKE = "twake"

_PORT_LIST = 0
_BITMAP = 1


def encode_tree_ports(tree_ports: List[int], degree: int) -> Bits:
    """Encode a set of tree ports at a degree-``degree`` node, choosing
    the cheaper of the port-list and bitmap representations."""
    width = max(1, degree.bit_length())
    count = len(tree_ports)
    w = BitWriter()
    # Both forms carry the one-bit selector; ties go to the port list.
    if gamma_cost(count + 1) + count * width <= degree:
        w.write_bit(_PORT_LIST)
        w.write_uint_list([p - 1 for p in tree_ports], width)
    else:
        w.write_bit(_BITMAP)
        w.write_uint(sum(1 << (degree - p) for p in set(tree_ports)), degree)
    return w.getvalue()


def decode_tree_ports(advice: Bits, degree: int) -> List[int]:
    """Inverse of :func:`encode_tree_ports`."""
    reader = BitReader(advice)
    kind = reader.read_bit()
    if kind == _PORT_LIST:
        width = max(1, degree.bit_length())
        return [p + 1 for p in reader.read_uint_list(width)]
    bitmap = reader.read_uint(degree)
    return [p for p in range(1, degree + 1) if bitmap >> (degree - p) & 1]


class _TreeFloodNode(NodeAlgorithm):
    """Send a wake tag over every advised tree port upon waking."""

    def on_wake(self, ctx: NodeContext) -> None:
        for port in decode_tree_ports(ctx.advice, ctx.degree):
            ctx.send(port, (WAKE,))

    def on_message(self, ctx: NodeContext, port: int, payload: Any) -> None:
        # The wake itself already triggered our tree broadcast.
        pass


class Fip06TreeAdvice(WakeUpAlgorithm):
    """Corollary 1: O(D) time, O(n) messages, max advice O(n), average
    advice O(log n); async KT0 CONGEST."""

    name = "fip06-tree-advice"
    synchrony = BOTH
    requires_kt1 = False
    uses_advice = True
    congest_safe = True

    def compute_advice(self, setup: NetworkSetup) -> AdviceMap:
        tree = OracleTree(setup)
        return AdviceMap(
            {
                v: encode_tree_ports(
                    tree.tree_ports(v), setup.ports.degree(v)
                )
                for v in setup.graph.vertices()
            }
        )

    def make_node(self, vertex, setup) -> NodeAlgorithm:
        return _TreeFloodNode()
