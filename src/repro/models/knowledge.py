"""Network setups: topology + IDs + ports + knowledge/bandwidth models.

A :class:`NetworkSetup` is the complete adversary-chosen static input of
an execution (Sec 1.1): the graph, the unique node IDs (drawn from a
range polynomial in n), each node's port mapping, whether nodes know
their neighbors' IDs (KT1) or only port numbers (KT0), the bandwidth
model (LOCAL/CONGEST), and — for advising schemes — the per-node advice
strings computed by an oracle that saw everything except the awake set.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Hashable, List, Optional

from repro.errors import SimulationError
from repro.graphs.graph import Graph, Vertex
from repro.models.congest import BandwidthModel, congest_model, local_model
from repro.models.ports import PortAssignment


class Knowledge(Enum):
    """Initial-knowledge assumption (Sec 1.1)."""

    KT0 = "KT0"
    KT1 = "KT1"


@dataclass
class NetworkSetup:
    """Static inputs of a wake-up execution.

    Attributes
    ----------
    graph:
        Topology.
    ids:
        vertex -> integer ID, unique, drawn from a polynomial range.
    ports:
        Port bijections per vertex.
    knowledge:
        KT0 or KT1.
    bandwidth:
        LOCAL or CONGEST policy.
    advice:
        vertex -> advice bit string (``bytes``-free ``str`` of '0'/'1'
        is avoided; we store :class:`tuple` of ints 0/1 via the advice
        layer).  ``None`` when the scheme uses no advice.
    log2_n_bound:
        The constant-factor upper bound on log n that nodes are assumed
        to know (Sec 1.1, footnote 1 area).
    """

    graph: Graph
    ids: Dict[Vertex, int]
    ports: PortAssignment
    knowledge: Knowledge
    bandwidth: BandwidthModel
    advice: Optional[Dict[Vertex, "object"]] = None
    log2_n_bound: int = 0

    def __post_init__(self) -> None:
        n = self.graph.num_vertices
        if len(self.ids) != n:
            raise SimulationError("every vertex needs an ID")
        if len(set(self.ids.values())) != n:
            raise SimulationError("IDs must be unique")
        if self.log2_n_bound <= 0:
            self.log2_n_bound = max(1, math.ceil(math.log2(max(2, n))))
        self._vertex_of_id = {i: v for v, i in self.ids.items()}

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.graph.num_vertices

    def id_of(self, v: Vertex) -> int:
        """The unique integer ID assigned to vertex v."""
        return self.ids[v]

    def vertex_of(self, node_id: int) -> Vertex:
        """Inverse of :meth:`id_of` (engine-side lookup)."""
        try:
            return self._vertex_of_id[node_id]
        except KeyError:
            raise SimulationError(f"no vertex has ID {node_id}") from None

    def neighbor_ids(self, v: Vertex) -> List[int]:
        """IDs of v's neighbors in port order (KT1 knowledge content)."""
        return [
            self.ids[self.ports.neighbor(v, p)]
            for p in self.ports.ports(v)
        ]

    def with_advice(self, advice: Dict[Vertex, object]) -> "NetworkSetup":
        """A copy of this setup carrying oracle-computed advice."""
        return NetworkSetup(
            graph=self.graph,
            ids=self.ids,
            ports=self.ports,
            knowledge=self.knowledge,
            bandwidth=self.bandwidth,
            advice=advice,
            log2_n_bound=self.log2_n_bound,
        )


def assign_ids(
    graph: Graph,
    seed: random.Random | int | None = None,
    id_range_exponent: int = 2,
    fixed: Optional[Dict[Vertex, int]] = None,
) -> Dict[Vertex, int]:
    """Assign unique IDs from a range of size n^id_range_exponent.

    ``fixed`` pins chosen vertices to chosen IDs (used by the 𝒢ₖ lower
    bound, which fixes the center-node IDs and permutes the rest).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.num_vertices
    space = max(n, n**id_range_exponent)
    ids: Dict[Vertex, int] = dict(fixed or {})
    if len(set(ids.values())) != len(ids):
        raise SimulationError("fixed IDs must be unique")
    used = set(ids.values())
    remaining = [v for v in graph.vertices() if v not in ids]
    pool: List[int] = []
    while len(pool) < len(remaining):
        candidate = rng.randrange(space)
        if candidate not in used:
            used.add(candidate)
            pool.append(candidate)
    for v, i in zip(remaining, pool):
        ids[v] = i
    return ids


def make_setup(
    graph: Graph,
    knowledge: Knowledge | str = Knowledge.KT1,
    bandwidth: str = "LOCAL",
    seed: random.Random | int | None = None,
    ids: Optional[Dict[Vertex, int]] = None,
    ports: Optional[PortAssignment] = None,
    congest_factor: int = 16,
    compiled: Optional[object] = None,
) -> NetworkSetup:
    """Convenience constructor for the common experiment shapes.

    ``knowledge`` is a :class:`Knowledge` member or its value ("KT0"
    or "KT1"); ``bandwidth`` is "LOCAL" or "CONGEST".  Random choices
    (IDs, port shuffles) derive from ``seed``.

    ``compiled`` (a :class:`repro.graphs.compile.CompiledTopology` of
    this same graph) routes the port shuffle through the artifact's
    prevalidated fast path: identical rng consumption, identical
    assignment, but no per-vertex permutation/symmetry re-validation
    and the engines' send tables come prebuilt.
    """
    try:
        knowledge = Knowledge(knowledge)
    except ValueError:
        raise SimulationError(
            f"unknown knowledge model {knowledge!r}"
        ) from None
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    if ids is None:
        ids = assign_ids(graph, rng)
    if ports is None:
        if compiled is not None:
            ports = compiled.random_ports(rng)
        else:
            ports = PortAssignment.random(graph, rng)
    if bandwidth == "LOCAL":
        bw = local_model()
    elif bandwidth == "CONGEST":
        bw = congest_model(graph.num_vertices, factor=congest_factor)
    else:
        raise SimulationError(f"unknown bandwidth model {bandwidth!r}")
    return NetworkSetup(
        graph=graph, ids=ids, ports=ports, knowledge=knowledge, bandwidth=bw
    )
