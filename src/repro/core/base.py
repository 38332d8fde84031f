"""Wake-up algorithm interface.

A :class:`WakeUpAlgorithm` declares its model requirements (synchrony,
knowledge, bandwidth, advice) and knows how to (a) run its oracle, if it
is an advising scheme, and (b) instantiate per-node protocol logic.  The
runner (:mod:`repro.sim.runner`) validates the declared requirements
against the :class:`~repro.models.knowledge.NetworkSetup` before
executing, so an algorithm can never silently run in a model it was not
designed for.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.advice.oracle import AdviceMap
from repro.errors import SimulationError
from repro.models.knowledge import Knowledge, NetworkSetup
from repro.sim.node import NodeAlgorithm

Vertex = Hashable

SYNC = "sync"
ASYNC = "async"
BOTH = "both"


class AlgorithmBase:
    """Phase-declaration mix-in shared by algorithms and node logic.

    The telemetry layer (:mod:`repro.obs`) attributes wall-time and
    message counts to *named phases*.  An algorithm opts in by listing
    the phases it reports in :attr:`phases` (documentation, and used by
    benches to assert a profile is complete) and decorating the node
    methods that do that work with
    :func:`@phased("name") <repro.obs.phases.phased>`.  Both are
    optional: undeclared phases still record.  Profiles land in the
    metrics registry's ``repro_phase_*`` series; without an enabled
    registry a decorated method is called straight through.
    """

    #: Phase names this algorithm's node methods report through
    #: ``@phased``; empty for uninstrumented algorithms.
    phases: Tuple[str, ...] = ()


class WakeUpAlgorithm(AlgorithmBase):
    """Base class for complete wake-up algorithms / advising schemes.

    Class attributes (override in subclasses):

    ``name``
        Human-readable identifier (used by the registry and benches).
    ``synchrony``
        "sync", "async", or "both" — which engines may run it.
    ``requires_kt1``
        True if the algorithm needs the KT1 assumption.
    ``uses_advice``
        True if :meth:`compute_advice` must be called before running.
    ``congest_safe``
        True if every message fits in O(log n) bits, i.e. the algorithm
        is a CONGEST algorithm.
    ``phases``
        (From :class:`AlgorithmBase`.)  Profiling phases the node logic
        reports through ``@phased`` methods; empty if uninstrumented.
    """

    name: str = "abstract"
    synchrony: str = BOTH
    requires_kt1: bool = False
    uses_advice: bool = False
    congest_safe: bool = False

    # ------------------------------------------------------------------
    def compute_advice(self, setup: NetworkSetup) -> Optional[AdviceMap]:
        """Run the oracle; returns None for advice-free algorithms.

        The oracle sees the full setup (graph, IDs, ports) but — per
        Sec 1.1 — *not* the wake schedule, which is not part of the
        setup object by construction.
        """
        return None

    def make_node(self, vertex: Vertex, setup: NetworkSetup) -> NodeAlgorithm:
        """Instantiate this node's protocol logic."""
        raise NotImplementedError

    def bulk_kernel(self, setup: NetworkSetup):
        """Frontier kernel for the bulk engine, or None (the default).

        Frontier-expressible algorithms override this to return a fresh
        :class:`~repro.sim.bulk.BulkKernel` capturing the same
        parameters :meth:`make_node` would bake into node instances.
        Returning None means "no bulk support": the runner transparently
        falls back to the per-message sync engine, so overriding is
        purely an optimization, never a requirement.
        """
        return None

    # ------------------------------------------------------------------
    def validate_setup(self, setup: NetworkSetup, engine: str) -> None:
        """Raise :class:`SimulationError` if the setup/engine combination
        contradicts the algorithm's declared requirements."""
        if self.requires_kt1 and setup.knowledge is not Knowledge.KT1:
            raise SimulationError(
                f"{self.name} requires the KT1 assumption"
            )
        if self.synchrony != BOTH and engine != self.synchrony:
            raise SimulationError(
                f"{self.name} is a {self.synchrony} algorithm; cannot run "
                f"on the {engine} engine"
            )
        if setup.bandwidth.is_congest and not self.congest_safe:
            raise SimulationError(
                f"{self.name} is not declared CONGEST-safe; run it under "
                "the LOCAL bandwidth model"
            )

    def build_nodes(self, setup: NetworkSetup) -> Dict[Vertex, NodeAlgorithm]:
        return {
            v: self.make_node(v, setup) for v in setup.graph.vertices()
        }
