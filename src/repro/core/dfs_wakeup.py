"""Theorem 3 — asynchronous KT1 LOCAL wake-up via ranked DFS tokens.

Every node woken *by the adversary* draws a random rank from [n^c] and
launches a depth-first-search token carrying (rank, origin ID, list of
visited IDs).  Nodes remember the lexicographically largest (rank, id)
pair they have ever seen; a token that arrives carrying a smaller pair
is discarded, a larger-or-equal one continues its DFS (Sec 3.1):

* the visited-ID list lets the current holder pick an unvisited
  neighbor (possible because of KT1 — it knows its neighbors' IDs);
* if all neighbors are visited, the token backtracks to its DFS parent;
* a token returning to its origin with nothing left to explore halts.

Nodes woken by a *message* never create ranks or tokens.

Guarantees (proved in the paper, verified empirically by the benches):

* correctness with probability 1 — the token of the maximum
  (rank, id) pair is never discarded and visits everyone (Las Vegas);
* each token's path is a DFS traversal of a tree, so a single token is
  forwarded O(n) times (Claim 1);
* every node forwards O(log n) distinct tokens w.h.p. (Claim 4), giving
  O(n log n) messages and O(n log n) time w.h.p.

LOCAL-only: the token carries up to n IDs, far beyond any CONGEST cap.
The visited list is a :class:`VisitedIds`, so a hop costs O(1) in the
list's length rather than a copy, a set and a re-measurement of it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.base import ASYNC, BOTH, AlgorithmBase, WakeUpAlgorithm
from repro.obs.phases import phased
from repro.sim.node import NodeAlgorithm, NodeContext

TOKEN = "dfs-token"

# Profiling phases (docs/observability.md): rank sampling at
# adversary-woken origins vs the DFS-token forwarding machinery.
PHASE_RANK_DRAW = "rank-draw"
PHASE_DFS_TOKEN = "dfs-token"

# Rank key: (rank, origin_id), compared lexicographically as in Sec 3.1.
RankKey = Tuple[int, int]


class VisitedIds:
    """The token's visited-ID list: an immutable sequence of IDs.

    Versions of one token's list share an append-only ID list and an
    ID -> position index; a version is a prefix length over them.
    :meth:`plus` on the newest version appends to the shared list in
    place, which older versions cannot see past their length.  On an
    older version it copies the prefix first, so no version ever
    changes.  Appending, membership and :meth:`size_bits` are O(1).

    To everything outside the algorithm it is the tuple of its IDs:
    ``size_bits()`` is what :func:`~repro.sim.messages.bit_size`
    charges that tuple, ``repr`` prints it, it compares and hashes
    equal to it, and the model checker's state normal form treats it
    as that tuple.
    """

    __slots__ = ("_ids", "_pos", "_n", "_bits")

    def __init__(self, ids: Iterable[int] = ()):
        self._ids: List[int] = []
        self._pos: Dict[int, int] = {}
        self._n = 0
        self._bits = 0
        for x in ids:
            self._append(x)

    def _append(self, x: int) -> None:
        # A tuple element costs 2 framing + 1 sign + max(1, bit_length)
        # bits (repro.sim.messages), and an ID is an int.
        self._pos.setdefault(x, self._n)
        self._ids.append(x)
        self._n += 1
        self._bits += 3 + max(1, x.bit_length())

    def plus(self, x: int) -> "VisitedIds":
        """This list with ``x`` appended."""
        if len(self._ids) == self._n:
            out = VisitedIds.__new__(VisitedIds)
            out._ids, out._pos = self._ids, self._pos
            out._n, out._bits = self._n, self._bits
        else:
            out = VisitedIds(self._ids[: self._n])
        out._append(x)
        return out

    def __contains__(self, x: Any) -> bool:
        return self._pos.get(x, self._n) < self._n

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self._ids[: self._n])

    def size_bits(self) -> int:
        """What :func:`~repro.sim.messages.bit_size` charges the tuple
        of these IDs."""
        return self._bits

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (VisitedIds, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class DfsWakeUpNode(AlgorithmBase, NodeAlgorithm):
    """Per-node state machine of the ranked-DFS algorithm."""

    phases = (PHASE_RANK_DRAW, PHASE_DFS_TOKEN)

    def __init__(self, rank_exponent: int = 4):
        # Largest (rank, origin id) seen so far; (-1, -1) = nothing yet.
        self.best: RankKey = (-1, -1)
        # DFS parent port per token key (set on first adoption; the
        # origin has no entry).
        self.parent_port: Dict[RankKey, Optional[int]] = {}
        # Exploration ports per token key: where we forwarded the token
        # to a then-unvisited neighbor.  For the winning token these
        # are exactly this node's tree-child edges, which the
        # applications layer (leader election, spanning tree) reuses.
        self.child_ports: Dict[RankKey, List[int]] = {}
        self.tokens_forwarded: Set[RankKey] = set()
        self._rank_exponent = rank_exponent
        self.my_rank: Optional[int] = None

    # ------------------------------------------------------------------
    def on_wake(self, ctx: NodeContext) -> None:
        if ctx.wake_cause != "adversary":
            # Message-woken nodes neither create ranks nor start DFS
            # traversals (Sec 3.1).
            return
        self._draw_rank(ctx)
        key = (self.my_rank, ctx.node_id)
        self.best = key
        self.parent_port[key] = None  # origin: backtracking past me = halt
        self.tokens_forwarded.add(key)
        self._start_token(ctx, key)

    @phased(PHASE_RANK_DRAW)
    def _draw_rank(self, ctx: NodeContext) -> None:
        # Rank from [n^c]: nodes know a constant-factor bound on log n,
        # so they can sample c * log2(n) random bits.
        rank_space = 1 << (self._rank_exponent * ctx.log2_n_bound)
        self.my_rank = ctx.rng.randrange(rank_space)

    @phased(PHASE_DFS_TOKEN)
    def _start_token(self, ctx: NodeContext, key: RankKey) -> None:
        self._advance(ctx, key, visited=VisitedIds((ctx.node_id,)))

    @phased(PHASE_DFS_TOKEN)
    def on_message(self, ctx: NodeContext, port: int, payload: Any) -> None:
        if payload[0] != TOKEN:
            return
        _, rank, origin, visited = payload
        key = (rank, origin)
        if key < self.best:
            # Case (b): a stale token — discard.
            return
        first_visit = ctx.node_id not in visited
        if first_visit:
            # Case (a): adopt and extend the traversal.
            self.best = key
            self.parent_port[key] = port
            visited = visited.plus(ctx.node_id)
        else:
            # The token is backtracking through us; keep exploring.
            self.best = max(self.best, key)
        self.tokens_forwarded.add(key)
        self._advance(ctx, key, visited)

    # ------------------------------------------------------------------
    def _advance(self, ctx: NodeContext, key: RankKey, visited: VisitedIds) -> None:
        """Forward the token to an unvisited neighbor, or backtrack."""
        for p, neighbor in enumerate(ctx.neighbor_ids(), 1):
            if neighbor not in visited:
                self.child_ports.setdefault(key, []).append(p)
                ctx.send(p, (TOKEN, key[0], key[1], visited))
                return
        parent = self.parent_port.get(key)
        if parent is not None:
            ctx.send(parent, (TOKEN, key[0], key[1], visited))
            return
        # parent is None: we are the origin and the DFS is complete.
        self.on_token_complete(ctx, key, visited)

    def on_token_complete(
        self, ctx: NodeContext, key: RankKey, visited: VisitedIds
    ) -> None:
        """Hook: our own token finished its traversal (it visited every
        ID in ``visited`` and backtracked home).  The base algorithm
        needs no follow-up; applications (leader election, spanning
        tree) override this to start their announcement phase."""


class DfsWakeUp(WakeUpAlgorithm):
    """Theorem 3: O(n log n) time and messages w.h.p., async KT1 LOCAL."""

    name = "dfs-rank"
    synchrony = BOTH  # designed for async; runs under lock-step too
    requires_kt1 = True
    uses_advice = False
    congest_safe = False
    phases = DfsWakeUpNode.phases

    def __init__(self, rank_exponent: int = 4):
        self._rank_exponent = rank_exponent

    def make_node(self, vertex, setup) -> NodeAlgorithm:
        return DfsWakeUpNode(rank_exponent=self._rank_exponent)
