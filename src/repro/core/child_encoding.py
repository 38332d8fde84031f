"""Theorem 5(B) — the child-encoding scheme (CEN, Sec 4.2).

Problem with the BFS-tree schemes: a node with many tree children must
somehow learn the ports to *all* of them, and listing them costs up to
O(n log n) bits of advice.  The child-encoding scheme distributes that
list among the children themselves:

The oracle arranges each node v's children c_1, ..., c_t (ordered by
v's port numbers) into an implicit binary heap over siblings — the
"next siblings" of c_i are c_{2i} and c_{2i+1}.  Advice of node w is
the tuple

    (p_w, fc_w, next_w)

where ``p_w`` is w's port to its parent, ``fc_w`` w's port to its
*first* child c_1, and ``next_w`` the pair of ports *at w's parent*
leading to w's two next siblings (Sec 4.2.1).  Everything is O(log n)
bits.

Wake-up protocol:

* a node that starts (adversary wake, or an ``up`` from a child) sends
  ``up`` to its parent and ``probe`` to its first child;
* a node receiving ``probe`` (necessarily from its parent) replies with
  its ``next_w`` pair and recursively starts discovering its own
  children (no ``up`` needed: the parent is evidently awake);
* a parent receiving a ``next`` reply probes the two revealed ports.

Each tree edge carries at most one ``up``, one ``probe``, and one
``next`` — O(n) messages total.  Discovering t children takes
2 * ceil(log2(t+1)) alternations, so a depth-D BFS tree is fully awake
within O(D log n) time.  All messages carry at most two port numbers:
CONGEST-safe.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.advice.bits import BitReader, BitWriter, Bits
from repro.advice.oracle import AdviceMap
from repro.core.base import BOTH, WakeUpAlgorithm
from repro.core.tree_util import OracleTree
from repro.models.knowledge import NetworkSetup
from repro.sim.node import NodeAlgorithm, NodeContext

UP = "cen-up"
PROBE = "cen-probe"
NEXT = "cen-next"


def encode_cen(
    parent_port: Optional[int],
    first_child_port: Optional[int],
    next_pair: Tuple[Optional[int], Optional[int]],
) -> Bits:
    """Encode a (p_w, fc_w, next_w) advice tuple; O(log n) bits."""
    w = BitWriter()
    w.write_opt_gamma(parent_port)
    w.write_opt_gamma(first_child_port)
    w.write_opt_gamma(next_pair[0])
    w.write_opt_gamma(next_pair[1])
    return w.getvalue()


def decode_cen(bits: Bits):
    r = BitReader(bits)
    return (
        r.read_opt_gamma(),
        r.read_opt_gamma(),
        (r.read_opt_gamma(), r.read_opt_gamma()),
    )


def cen_advice_for_tree(tree: OracleTree, setup: NetworkSetup) -> AdviceMap:
    """The CEN oracle: sibling binary-heap structure over a BFS tree."""
    parent_port: dict = {}
    first_child: dict = {}
    next_pair: dict = {}
    for v in setup.graph.vertices():
        parent_port[v] = tree.parent_port(v)
        kids = tree.children[v]
        first_child[v] = (
            setup.ports.port(v, kids[0]) if kids else None
        )
        # Heap-position the siblings: child i (1-based) points at
        # children 2i and 2i+1 via ports *at v*.
        for i, c in enumerate(kids, start=1):
            nxt1 = (
                setup.ports.port(v, kids[2 * i - 1])
                if 2 * i <= len(kids)
                else None
            )
            nxt2 = (
                setup.ports.port(v, kids[2 * i])
                if 2 * i + 1 <= len(kids)
                else None
            )
            next_pair[c] = (nxt1, nxt2)
    advice = {}
    for v in setup.graph.vertices():
        advice[v] = encode_cen(
            parent_port[v],
            first_child[v],
            next_pair.get(v, (None, None)),
        )
    return AdviceMap(advice)


class _CenNode(NodeAlgorithm):
    def __init__(self) -> None:
        self._started = False
        self._parent_port: Optional[int] = None
        self._fc_port: Optional[int] = None
        self._next: Tuple[Optional[int], Optional[int]] = (None, None)
        self._decoded = False

    def _decode(self, ctx: NodeContext) -> None:
        if not self._decoded:
            self._parent_port, self._fc_port, self._next = decode_cen(
                ctx.advice
            )
            self._decoded = True

    def _start(self, ctx: NodeContext, notify_parent: bool) -> None:
        if self._started:
            return
        self._started = True
        self._decode(ctx)
        if notify_parent and self._parent_port is not None:
            ctx.send(self._parent_port, (UP,))
        if self._fc_port is not None:
            ctx.send(self._fc_port, (PROBE,))

    def on_wake(self, ctx: NodeContext) -> None:
        if ctx.wake_cause == "adversary":
            self._start(ctx, notify_parent=True)

    def on_message(self, ctx: NodeContext, port: int, payload: Any) -> None:
        tag = payload[0]
        if tag == UP:
            # A child woke us (or reached us already awake): ensure our
            # own discovery + upward propagation are running.
            self._start(ctx, notify_parent=True)
        elif tag == PROBE:
            self._decode(ctx)
            n1, n2 = self._next
            ctx.send(port, (NEXT, n1 or 0, n2 or 0))
            # Parent is awake; only the downward discovery is needed.
            self._start(ctx, notify_parent=False)
        elif tag == NEXT:
            _, n1, n2 = payload
            if n1:
                ctx.send(n1, (PROBE,))
            if n2:
                ctx.send(n2, (PROBE,))


class ChildEncodingAdvice(WakeUpAlgorithm):
    """Theorem 5(B): O(D log n) time, O(n) messages, max advice
    O(log n) bits; async KT0 CONGEST."""

    name = "child-encoding"
    synchrony = BOTH
    requires_kt1 = False
    uses_advice = True
    congest_safe = True

    def compute_advice(self, setup: NetworkSetup) -> AdviceMap:
        return cen_advice_for_tree(OracleTree(setup), setup)

    def make_node(self, vertex, setup) -> NodeAlgorithm:
        return _CenNode()
