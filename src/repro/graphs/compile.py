"""Compiled-topology artifacts: build each workload once, run it everywhere.

PR-3 made the engine inner loop fast enough that *cell setup* became a
dominant sweep cost: every trial of every cell rebuilt the workload
graph, re-derived port assignments, and re-ran the ``awake_distance``
BFS — even though all trials at a given (workload, n) share the
identical topology, and the paper's lower-bound families (GF(p^m)
arithmetic, the D(k, q) high-girth builder, graph spanners) are by far
the most expensive structures we build.

This module is the "compile once, execute many" separation:

* :class:`CompiledTopology` — a flat, validated artifact: CSR-style
  adjacency preserving the builder's exact insertion order (so
  everything seeded downstream — IDs, port shuffles, BFS orders — is
  bit-identical to a fresh build), the awake set, the cached
  ``rho_awk``, and optional *extras* (precomputed spanner edge lists
  for the advice algorithms);
* an **in-process LRU** keyed by :func:`topology_key` — a stable
  blake2b digest of ``(workload kind, params, n, graphs-salt)``, where
  the salt is the graphs-subsystem code digest from
  :mod:`repro.versioning` — so repeated trials at the same n in one
  process reuse one build, and only *graphs-layer* code edits orphan
  stored artifacts;
* :class:`TopologyStore` — the on-disk artifact store next to the cell
  cache: worker processes deserialize a compiled topology instead of
  rebuilding, with write-to-temp + atomic rename and an advisory file
  lock so concurrent workers build each topology exactly once and
  never observe a partially written artifact.

Cache effectiveness is observable: every fetch counts one of
``build`` / ``hit_mem`` / ``hit_disk`` in the metrics registry's
``repro_topology_fetch_total{tier=...}`` (pooled workers ship theirs
back in their registry delta), which ``repro report --telemetry``
renders as its "Topology cache" table.

The cache is a pure speedup, never a semantics change: sweep rows must
stay bit-identical to the rebuild path (enforced by the conformance
tests in ``tests/test_parallel_executor.py``).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.artifacts import write_atomic
from repro.graphs.graph import Graph, Vertex
from repro.graphs.traversal import awake_distance, diameter
from repro.graphs.workloads import build_workload
from repro.obs.metrics import get_registry as _get_registry

#: On-disk artifact layout version; bump when the pickle body changes.
STORE_VERSION = 1

#: Default artifact location — a sibling of the cell cache
#: (``results/.cache``), so the two runtime caches live next to each
#: other and are purged independently (see EXPERIMENTS.md).
DEFAULT_TOPOLOGY_DIR = Path("results") / ".topologies"

#: How many compiled topologies the in-process LRU retains.  Topologies
#: are O(n + m) ints plus the materialized graph, so a few dozen is
#: cheap; sweeps touch sizes mostly in order, so even small values hit.
MEMORY_CACHE_SIZE = 32


def _default_salt() -> str:
    # The graphs-subsystem code salt (repro.versioning): compiled
    # topologies depend only on workload-builder and compile-layer
    # code, so engine or algorithm edits leave every artifact live.
    # Imported lazily to keep this module import-light.
    from repro.versioning import subsystem_salt

    return subsystem_salt("graphs")


def topology_key(
    workload: Dict[str, Any], n: int, salt: Optional[str] = None
) -> str:
    """Content hash identifying one compiled topology.

    Keyed by the full workload spec (kind + params), the size, and the
    code-version salt, canonically serialized — any differing input
    yields a different key, and a salt bump orphans every old artifact.
    """
    blob = json.dumps(
        {
            "salt": salt if salt is not None else _default_salt(),
            "workload": dict(workload),
            "n": n,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=20).hexdigest()


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------
class CompiledTopology:
    """One workload's topology, compiled to flat arrays.

    ``verts`` lists vertex labels in the builder's insertion order and
    ``indptr``/``indices`` are the CSR adjacency over vertex *indices*,
    with each row in the builder's neighbor insertion order.  Because
    both orders are preserved exactly, a :class:`Graph` materialized
    from the artifact consumes seeded randomness (ID assignment, port
    shuffles) identically to a freshly built one — the property the
    bit-identical-rows contract rests on.

    ``extras`` holds optional precomputed structures that depend only
    on the topology (currently spanner edge lists, as index pairs,
    keyed by a canonical tag); they persist with the artifact so e.g. a
    greedy spanner is built once per topology rather than once per
    trial of every advice cell.
    """

    __slots__ = (
        "key",
        "n",
        "verts",
        "indptr",
        "indices",
        "awake",
        "rho_awk",
        "extras",
        "_graph",
        "_runtime",
        "_store",
    )

    def __init__(
        self,
        key: str,
        verts: List[Vertex],
        indptr: List[int],
        indices: List[int],
        awake: Tuple[int, ...],
        rho_awk: float,
        extras: Optional[Dict[str, Any]] = None,
    ):
        self.key = key
        self.n = len(verts)
        self.verts = verts
        self.indptr = indptr
        self.indices = indices
        self.awake = tuple(awake)
        self.rho_awk = float(rho_awk)
        self.extras: Dict[str, Any] = extras if extras is not None else {}
        self._graph: Optional[Graph] = None
        # Materialized (non-persistable) views derived from extras,
        # e.g. spanner Graph objects; never serialized.
        self._runtime: Dict[str, Any] = {}
        # The store that owns the on-disk artifact (if any); lets
        # lazily computed extras be persisted back.
        self._store: Optional["TopologyStore"] = None

    # -- construction ----------------------------------------------------
    @classmethod
    def compile(
        cls, graph: Graph, awake, key: str = ""
    ) -> "CompiledTopology":
        """Compile a built workload into an artifact.

        Computes and caches ``rho_awk`` (one multi-source BFS — the
        traversal legacy cells repeated per trial), raising the same
        :class:`~repro.errors.GraphError` a fresh build would if some
        vertex is unreachable from the awake set.
        """
        awake = list(awake)
        rho = float(awake_distance(graph, awake))
        verts = list(graph.vertices())
        index = {v: i for i, v in enumerate(verts)}
        indptr = [0]
        indices: List[int] = []
        for v in verts:
            for u in graph.neighbors(v):
                indices.append(index[u])
            indptr.append(len(indices))
        topo = cls(
            key=key,
            verts=verts,
            indptr=indptr,
            indices=indices,
            awake=tuple(index[v] for v in awake),
            rho_awk=rho,
        )
        # Reuse the freshly built graph rather than re-materializing.
        topo._graph = graph
        return topo

    # -- views -----------------------------------------------------------
    def graph(self) -> Graph:
        """The materialized :class:`Graph` (built once, then shared).

        Construction writes the adjacency dicts directly — the artifact
        was validated when compiled (and is digest-checked on load), so
        the per-edge checks of :meth:`Graph.add_edge` are skipped.
        """
        if self._graph is None:
            verts = self.verts
            indptr, indices = self.indptr, self.indices
            adj = {
                v: {
                    verts[j]: None
                    for j in indices[indptr[i] : indptr[i + 1]]
                }
                for i, v in enumerate(verts)
            }
            g = Graph.__new__(Graph)
            g._adj = adj
            self._graph = g
        return self._graph

    def awake_vertices(self) -> List[Vertex]:
        """The awake-set labels, in workload order."""
        return [self.verts[i] for i in self.awake]

    def num_edges(self) -> int:
        return len(self.indices) // 2

    def random_ports(self, rng) -> "Any":
        """Uniformly random port assignment, bit-compatible with
        ``PortAssignment.random(self.graph(), rng)`` but skipping the
        per-vertex permutation and symmetry validation (the artifact is
        already validated) and prebuilding the engines' send tables.

        Consumes ``rng`` in exactly the same sequence as the legacy
        constructor — ``random.shuffle`` depends only on list length —
        so seeded runs stay bit-identical.
        """
        from repro.models.ports import PortAssignment

        graph = self.graph()
        verts = self.verts
        indptr, indices = self.indptr, self.indices
        order: Dict[Vertex, List[Vertex]] = {}
        for i, v in enumerate(verts):
            nbrs = [verts[j] for j in indices[indptr[i] : indptr[i + 1]]]
            rng.shuffle(nbrs)
            order[v] = nbrs
        return PortAssignment.prevalidated(graph, order)

    # -- serialization ---------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "verts": self.verts,
            "indptr": self.indptr,
            "indices": self.indices,
            "awake": self.awake,
            "rho_awk": self.rho_awk,
            "extras": self.extras,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CompiledTopology":
        return cls(
            key=payload["key"],
            verts=payload["verts"],
            indptr=payload["indptr"],
            indices=payload["indices"],
            awake=tuple(payload["awake"]),
            rho_awk=payload["rho_awk"],
            extras=dict(payload.get("extras", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTopology(n={self.n}, m={self.num_edges()}, "
            f"key={self.key[:12]}...)"
        )


def build_topology(
    workload: Dict[str, Any], n: int, key: str = ""
) -> CompiledTopology:
    """Resolve a workload spec and compile its topology at size n."""
    graph, awake = build_workload(dict(workload))(n)
    return CompiledTopology.compile(graph, awake, key=key)


# ----------------------------------------------------------------------
# In-process LRU
# ----------------------------------------------------------------------
_MEM_LOCK = threading.Lock()
_MEM_CACHE: "OrderedDict[str, CompiledTopology]" = OrderedDict()
# id(materialized graph) -> its topology, for graph-keyed lookups
# (cached_spanner).  Entries exist exactly while the topology is in the
# LRU; the LRU's strong reference keeps the graph alive, so ids cannot
# be recycled while mapped.
_TOPO_BY_GRAPH: Dict[int, CompiledTopology] = {}


def _mem_get(key: str) -> Optional[CompiledTopology]:
    with _MEM_LOCK:
        topo = _MEM_CACHE.get(key)
        if topo is not None:
            _MEM_CACHE.move_to_end(key)
        return topo


def _mem_put(topo: CompiledTopology) -> None:
    with _MEM_LOCK:
        _MEM_CACHE[topo.key] = topo
        _MEM_CACHE.move_to_end(topo.key)
        _TOPO_BY_GRAPH[id(topo.graph())] = topo
        while len(_MEM_CACHE) > MEMORY_CACHE_SIZE:
            _, evicted = _MEM_CACHE.popitem(last=False)
            _TOPO_BY_GRAPH.pop(id(evicted._graph), None)


def clear_memory_cache() -> None:
    """Drop every in-process compiled topology (tests / benchmarks)."""
    with _MEM_LOCK:
        _MEM_CACHE.clear()
        _TOPO_BY_GRAPH.clear()


def compiled_for_graph(graph: Graph) -> Optional[CompiledTopology]:
    """The LRU-managed topology whose materialized graph is ``graph``.

    Returns None for any graph that is not (or is no longer) the
    materialized view of a cached artifact — callers then fall back to
    reading the graph directly.  This is the graph-keyed lookup both
    :func:`cached_spanner` and the bulk engine's CSR reuse rest on.
    """
    with _MEM_LOCK:
        topo = _TOPO_BY_GRAPH.get(id(graph))
    if topo is None or topo._graph is not graph:
        return None
    return topo


def compiled_topology(
    workload: Dict[str, Any],
    n: int,
    store: Optional["TopologyStore"] = None,
    stats: Optional[Dict[str, int]] = None,
) -> CompiledTopology:
    """Fetch-or-build through every cache layer.

    Order: in-process LRU, then the on-disk ``store`` (when given),
    then a fresh build (written back to the store under its file
    lock).  Every fetch counts its tier in the metrics registry;
    ``stats`` (when given) also receives ``build`` / ``hit_mem`` /
    ``hit_disk`` increments.
    """
    if store is not None:
        return store.fetch_or_build(workload, n, stats=stats)
    key = topology_key(workload, n)
    topo = _mem_get(key)
    if topo is not None:
        _bump(stats, "hit_mem")
        return topo
    topo = build_topology(workload, n, key=key)
    _bump(stats, "build")
    _mem_put(topo)
    return topo


def _bump(stats: Optional[Dict[str, int]], what: str) -> None:
    """Single choke point for topology-fetch accounting: every build /
    hit_mem / hit_disk resolution passes through here, so the metrics
    counter and a caller's ``stats`` dict agree exactly by construction
    (no registry cost when metrics are disabled — the null registry's
    counter() is a no-op)."""
    _get_registry().counter("repro_topology_fetch_total", tier=what).inc()
    if stats is not None:
        stats[what] = stats.get(what, 0) + 1


# ----------------------------------------------------------------------
# Topology-derived spanner memo
# ----------------------------------------------------------------------
def cached_spanner(
    graph: Graph,
    kind: str,
    params: Dict[str, Any],
    builder: Callable[[Graph], Graph],
) -> Graph:
    """Per-topology spanner memo for the advice oracles.

    When ``graph`` is the materialized graph of an LRU-managed compiled
    topology, the spanner is built at most once per topology: first
    from the persisted edge list in the artifact's extras (written back
    to the store when first computed), else by calling ``builder`` —
    and the materialized result is reused across trials in-process.
    For any other graph this is exactly ``builder(graph)``; the memo
    never changes what a spanner *is*, only how often it is built
    (spanner consumers are order-insensitive — they query
    ``has_edge`` — so a spanner rebuilt from its edge list is
    equivalent).
    """
    topo = compiled_for_graph(graph)
    if topo is None:
        return builder(graph)
    tag = "spanner:" + json.dumps(
        {"kind": kind, **params}, sort_keys=True, separators=(",", ":"),
        default=repr,
    )
    spanner = topo._runtime.get(tag)
    if spanner is not None:
        return spanner
    edge_idx = topo.extras.get(tag)
    if edge_idx is not None:
        verts = topo.verts
        spanner = Graph(verts)
        for i, j in edge_idx:
            spanner.add_edge_safe(verts[i], verts[j])
    else:
        spanner = builder(graph)
        index = {v: i for i, v in enumerate(topo.verts)}
        topo.extras[tag] = [
            (index[u], index[v]) for u, v in spanner.edges()
        ]
        if topo._store is not None:
            topo._store.persist_extras(topo)
    topo._runtime[tag] = spanner
    return spanner


def topology_diameter(topo: CompiledTopology) -> int:
    """The diameter of ``topo``'s graph, computed once per topology.

    It is kept in the topology's extras and written back to its store,
    like :func:`cached_spanner`'s edge lists, so a warm store runs no
    BFS."""
    d = topo.extras.get("diameter")
    if d is None:
        d = topo.extras["diameter"] = diameter(topo.graph())
        if topo._store is not None:
            topo._store.persist_extras(topo)
    return d


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class TopologyStore:
    """Content-addressed on-disk store of compiled topologies.

    Artifacts are pickled with a digest over the body and written by
    :func:`repro.artifacts.write_atomic` (temp file, then rename), so a
    concurrent reader sees either nothing or a complete artifact —
    never a torn write.  Builds take an advisory ``flock`` on a per-key
    lock file and re-check the store after acquiring it, so N workers
    racing on one topology perform exactly one build (the rest load
    the winner's artifact).

    A mismatched ``salt`` (the graphs-subsystem code salt), a
    mismatched key, or any unpickling/digest failure is treated as a
    miss: the topology is rebuilt and the artifact rewritten.
    """

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_TOPOLOGY_DIR,
        salt: Optional[str] = None,
    ):
        self.root = Path(root)
        self.salt = salt if salt is not None else _default_salt()

    # -- layout ----------------------------------------------------------
    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.topo"

    def _lock_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.lock"

    @contextmanager
    def _locked(self, key: str):
        lock_path = self._lock_path(key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(lock_path, "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    # -- fetch / build ---------------------------------------------------
    def fetch_or_build(
        self,
        workload: Dict[str, Any],
        n: int,
        stats: Optional[Dict[str, int]] = None,
    ) -> CompiledTopology:
        key = topology_key(workload, n, self.salt)
        topo = _mem_get(key)
        if topo is not None:
            _bump(stats, "hit_mem")
            return topo
        topo = self._load(key)
        if topo is None:
            with self._locked(key):
                # A racing worker may have built while we waited.
                topo = self._load(key)
                if topo is None:
                    topo = build_topology(workload, n, key=key)
                    self._write(topo)
                    _bump(stats, "build")
                else:
                    _bump(stats, "hit_disk")
        else:
            _bump(stats, "hit_disk")
        topo._store = self
        _mem_put(topo)
        return topo

    # -- disk I/O --------------------------------------------------------
    def _load(self, key: str) -> Optional[CompiledTopology]:
        try:
            raw = self.path(key).read_bytes()
        except OSError:
            return None
        try:
            envelope = pickle.loads(raw)
            if not isinstance(envelope, dict):
                return None
            if (
                envelope.get("magic") != "repro-topology"
                or envelope.get("version") != STORE_VERSION
                or envelope.get("salt") != self.salt
                or envelope.get("key") != key
            ):
                return None
            body = envelope["body"]
            if hashlib.blake2b(body).hexdigest() != envelope.get("digest"):
                return None
            return CompiledTopology.from_payload(pickle.loads(body))
        except Exception:
            # Torn, truncated, or corrupted artifact: a miss, not an
            # error — the caller rebuilds and rewrites.
            return None

    def _write(self, topo: CompiledTopology) -> None:
        body = pickle.dumps(topo.to_payload(), protocol=4)
        envelope = pickle.dumps(
            {
                "magic": "repro-topology",
                "version": STORE_VERSION,
                "salt": self.salt,
                "key": topo.key,
                "digest": hashlib.blake2b(body).hexdigest(),
                "body": body,
            },
            protocol=4,
        )
        write_atomic(self.path(topo.key), envelope)

    def persist_extras(self, topo: CompiledTopology) -> None:
        """Rewrite an artifact after lazily computing extras (e.g. a
        spanner), under the key's file lock; best-effort (an unwritable
        store never fails the run — the extra is simply recomputed
        next time)."""
        try:
            with self._locked(topo.key):
                self._write(topo)
        except OSError:  # pragma: no cover - store on read-only media
            pass

    # -- maintenance -----------------------------------------------------
    def entry_is_live(self, path: Union[str, Path]) -> bool:
        """Whether the artifact at ``path`` is usable by this store.

        It must carry this store's layout version and graphs salt (the
        ``repro cache`` liveness rule).  The body is not unpickled, so
        walking a large store is cheap; a torn or foreign file is not
        live."""
        try:
            envelope = pickle.loads(Path(path).read_bytes())
        except Exception:
            return False
        return (
            isinstance(envelope, dict)
            and envelope.get("magic") == "repro-topology"
            and envelope.get("version") == STORE_VERSION
            and envelope.get("salt") == self.salt
        )
