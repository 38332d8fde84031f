"""Leader election and spanning-tree construction on top of wake-up.

Sec 1.3 of the paper situates wake-up among leader election and MST
under adversarial wake-up: those problems *contain* wake-up (every
node must participate in the output), and conversely the paper's
Theorem-3 machinery almost is a leader election.  This module closes
the gap, as a downstream consumer of the library's public API would:

Run the ranked-DFS wake-up; when a node's own token completes its
traversal (it visited every node and backtracked home), that node
announces itself as leader along the token's DFS tree — each tree edge
carries exactly one announcement message.  Several tokens may complete
(a small token can finish before a larger one overruns its territory),
so announcements carry their (rank, id) key and nodes adopt/forward
only strictly larger ones; since the maximum-key token always completes
and its tree spans every node, all nodes converge on the same leader.

Outputs per node: the leader's ID and the node's parent edge in the
winner's DFS tree — i.e. leader election *and* a spanning tree, for
O(n log n) + O(n) messages on top of wake-up (matching the classic
reductions the paper cites [KKM+12]).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.base import BOTH, WakeUpAlgorithm
from repro.core.dfs_wakeup import DfsWakeUpNode, RankKey
from repro.graphs.graph import Graph
from repro.models.knowledge import NetworkSetup
from repro.sim.node import NodeContext

ANNOUNCE = "leader-announce"

Vertex = Hashable


class _LeaderNode(DfsWakeUpNode):
    """DFS wake-up node extended with the announcement phase."""

    def __init__(
        self,
        vertex: Vertex,
        leader_of: Dict[Vertex, int],
        tree_parent_port: Dict[Vertex, Optional[int]],
        rank_exponent: int,
    ):
        super().__init__(rank_exponent=rank_exponent)
        self._vertex = vertex
        # The algorithm's output maps, not the algorithm itself: node
        # state must stay plain data for the model checker's
        # fingerprints.
        self._leader_of = leader_of
        self._tree_parent_port = tree_parent_port
        self._announced: RankKey = (-1, -1)

    # -- completion hook ----------------------------------------------------
    def on_token_complete(self, ctx: NodeContext, key: RankKey, visited) -> None:
        self._adopt_leader(ctx, key, parent_port=None)

    # -- announcement handling ----------------------------------------------
    def on_message(self, ctx: NodeContext, port: int, payload: Any) -> None:
        if isinstance(payload, tuple) and payload[:1] == (ANNOUNCE,):
            _, rank, origin = payload
            self._adopt_leader(
                ctx, (rank, origin), parent_port=port
            )
            return
        super().on_message(ctx, port, payload)

    def _adopt_leader(
        self, ctx: NodeContext, key: RankKey, parent_port: Optional[int]
    ) -> None:
        if key <= self._announced:
            return  # we already follow an equal-or-better leader
        self._announced = key
        self._leader_of[self._vertex] = key[1]
        # Our parent edge in the winner's DFS tree (None at the leader).
        self._tree_parent_port[self._vertex] = self.parent_port.get(key)
        for child_port in self.child_ports.get(key, ()):  # tree edges only
            ctx.send(child_port, (ANNOUNCE, key[0], key[1]))


class LeaderElection(WakeUpAlgorithm):
    """Leader election + spanning tree via ranked-DFS wake-up.

    After a run, :attr:`leader_of` maps each vertex to its elected
    leader's ID and :attr:`tree_parent_port` to its parent port in the
    winner's DFS tree; :meth:`agreed_leader` and :meth:`spanning_tree`
    aggregate and verify them.
    """

    name = "leader-election"
    synchrony = BOTH
    requires_kt1 = True
    uses_advice = False
    congest_safe = False

    def __init__(self, rank_exponent: int = 4):
        self._rank_exponent = rank_exponent
        self.leader_of: Dict[Vertex, int] = {}
        self.tree_parent_port: Dict[Vertex, Optional[int]] = {}
        self._setup: Optional[NetworkSetup] = None

    def make_node(self, vertex, setup) -> _LeaderNode:
        self._setup = setup
        return _LeaderNode(
            vertex, self.leader_of, self.tree_parent_port, self._rank_exponent
        )

    # ------------------------------------------------------------------
    def agreed_leader(self) -> Optional[int]:
        """The unanimous leader ID, or None if nodes disagree or some
        node never learned a leader."""
        if self._setup is None:
            return None
        if set(self.leader_of) != set(self._setup.graph.vertices()):
            return None
        leaders = set(self.leader_of.values())
        if len(leaders) != 1:
            return None
        return leaders.pop()

    def spanning_tree(self) -> Optional[Graph]:
        """The elected leader's DFS tree as a graph, or None if the
        recorded parent edges do not form a spanning tree."""
        if self._setup is None or self.agreed_leader() is None:
            return None
        tree = Graph(self._setup.graph.vertices())
        roots = 0
        for v, port in self.tree_parent_port.items():
            if port is None:
                roots += 1
                continue
            parent = self._setup.ports.neighbor(v, port)
            tree.add_edge_safe(v, parent)
        if roots != 1 or tree.num_edges != self._setup.n - 1:
            return None
        from repro.graphs.traversal import is_tree

        return tree if is_tree(tree) else None
