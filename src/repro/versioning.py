"""Per-subsystem code-version salts for incremental cache invalidation.

Until PR-9 one hand-bumped global (``repro.experiments.parallel
.CODE_SALT``) keyed every runtime cache: cached sweep cells, compiled
topology artifacts, and check replays all died together whenever *any*
semantics changed.  That made every engine tweak a cold start — a
one-line edit to ``spanner_advice.py`` purged flooding rows and every
64-693x-warm topology artifact with it.

This module replaces the hand-bumped constant with *derived* salts:

* the ``repro`` package is partitioned into **subsystems** by a
  declared longest-prefix map (:data:`SUBSYSTEMS`); a test asserts the
  partition is total, so a new module cannot silently float outside
  the invalidation story;
* every module's source is **normalized** (parsed to an AST, docstrings
  stripped, then ``ast.dump``-ed — comments and formatting vanish with
  the parse) and digested, so doc-only edits never invalidate anything;
* a subsystem's salt is a stable blake2b fold over its modules'
  ``(name, digest)`` pairs — any *code* edit inside the subsystem moves
  the salt, edits elsewhere do not;
* algorithm cells get finer granularity still:
  :func:`algorithm_salt` digests only the algorithm's *import closure*
  within the algorithms subsystem (plus the registry, which carries
  construction parameters), so a ``spanner_advice.py`` edit re-executes
  spanner-advice cells and leaves flooding cells warm.

Consumers pick the salts they actually depend on:

=====================  =============================================
artifact               salts it is stamped with
=====================  =============================================
sweep cells            ``engine`` + ``graphs`` + per-algorithm
                       (+ ``check`` when controlled)
check replays          cell salts + ``check``
atlas entries          cell salts (+ ``check`` when controlled)
compiled topologies    ``graphs``
=====================  =============================================

The three JSON artifacts are stamped with :func:`cell_salt_vector` and
judged by one rule, :func:`stale_salts`; their readers only parse
their own format.  Compiled topologies are pickles with no algorithm
and check their own graphs salt.

The ``harness`` subsystem (executors, CLI, serve daemon, telemetry) is
deliberately in *no* cache key: orchestration code moves results
around but never changes what a cell computes — the bit-identical-rows
conformance suite is what enforces that claim.

Salts are computed from *source text on disk*, never by importing the
measured modules, and memoized twice.  Within a process every module
is read and parsed at most once.  Across processes an on-disk memo in
the package's ``__pycache__``, keyed by each file's raw bytes
(:func:`_module_facts`), hands back the digest and import candidates
of every unchanged module: a process reads and hashes the files but
parses only those edited since the memo was written.  Parsing the
forty modules one cell's salts cover takes about a quarter of a
second; with a warm memo the same salts take about ten milliseconds.
"""

from __future__ import annotations

import ast
import hashlib
import json
import sys
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.artifacts import write_atomic

#: Subsystem -> module-name prefixes (longest prefix wins).  Top-level
#: one-file modules are listed explicitly under ``harness`` so the
#: partition is total over the package; the completeness test in
#: ``tests/test_versioning.py`` fails the build when a new module
#: matches nothing.
SUBSYSTEMS: Dict[str, Tuple[str, ...]] = {
    # Event loops, node runtime, adversary, result/trace plumbing, and
    # the model layer (ports, knowledge, advice setup) cells run on.
    "engine": ("repro.sim", "repro.models"),
    # Workload builders, compiled-topology artifacts, spanners.
    "graphs": ("repro.graphs",),
    # Algorithm implementations + the advice oracles they query.
    "algorithms": ("repro.core", "repro.advice"),
    # Schedule-space exploration, worst-case search, replay artifacts;
    # lowerbounds feeds the class-G worlds the checker explores.
    "check": ("repro.check", "repro.lowerbounds"),
    # Stochastic adversary optimizers + the frontier atlas.  Search
    # strategy code *picks* candidates but never executes them, so this
    # salt joins no cell cache key; atlas entries instead carry the
    # salts of what the incumbent actually runs (see
    # :func:`cell_salt_vector`).
    "opt": ("repro.opt",),
    # Orchestration: executors, CLI, serve daemon, observability,
    # analysis, notebooks.  Never part of a cache key.
    "harness": (
        "repro.experiments",
        "repro.serve",
        "repro.obs",
        "repro.analysis",
        "repro.apps",
        "repro.versioning",
        "repro.artifacts",
        "repro.errors",
        "repro.__main__",
    ),
}

#: Modules whose digests join *every* algorithm salt but whose imports
#: are never traversed: the registry imports every algorithm module by
#: design, so expanding through it would collapse per-algorithm
#: granularity back to one subsystem-wide salt.  It still must be
#: digested everywhere — it carries construction parameters (e.g.
#: ``lambda: SpannerAdvice(k=3, method="greedy")``).
ALGORITHM_BARRIER_MODULES: Tuple[str, ...] = (
    "repro.core.registry",
    "repro.core",
    "repro.advice",
)


def subsystem_of(module: str) -> str:
    """Map a module name to its subsystem (longest prefix wins).

    Raises ``KeyError`` for a module no prefix covers — the
    completeness test turns that into a build failure.  The bare
    package ``__init__`` is harness by fiat; there is deliberately no
    ``repro.*`` catch-all, so a brand-new top-level module *fails*
    mapping until someone decides which caches its code can perturb.
    """
    if module == "repro":
        return "harness"
    best: Tuple[int, Optional[str]] = (-1, None)
    for name, prefixes in SUBSYSTEMS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best[0]:
                    best = (len(prefix), name)
    if best[1] is None:
        raise KeyError(
            f"module {module!r} maps to no subsystem; "
            "extend repro.versioning.SUBSYSTEMS"
        )
    return best[1]


# ----------------------------------------------------------------------
# Source normalization + digests
# ----------------------------------------------------------------------
def _parse(text: str) -> Optional[ast.Module]:
    try:
        return ast.parse(text)
    except SyntaxError:
        return None


def _normal_form(tree: ast.Module) -> str:
    """Dump ``tree`` without docstrings or position attributes (the
    docstrings are deleted from ``tree`` in place)."""
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                del body[0]
    return ast.dump(tree, include_attributes=False)


def normalized_source(text: str) -> str:
    """Source with comments, whitespace, and docstrings erased.

    Parses to an AST (which drops comments and formatting by
    construction), removes every docstring expression, and dumps the
    tree without position attributes — so a doc-only edit yields the
    byte-identical normal form.  Text that does not parse (syntax
    error mid-edit) falls back to the raw text: a conservative digest
    beats an exception while the user is typing.
    """
    tree = _parse(text)
    return text if tree is None else _normal_form(tree)


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def source_digest(text: str) -> str:
    """Stable digest of one module's normalized source."""
    return _digest(normalized_source(text))


def _fold(parts: Iterable[Tuple[str, str]]) -> str:
    """Fold sorted ``(module, digest)`` pairs into one salt."""
    blob = json.dumps(sorted(parts), separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


# ----------------------------------------------------------------------
# Package walk (memoized)
# ----------------------------------------------------------------------
def package_root() -> Path:
    """Directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def _module_name(root: Path, path: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = ["repro", *rel.parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


_MODULE_INDEX: Optional[Dict[str, Path]] = None
_SUBSYSTEM_SALTS: Dict[str, str] = {}
_ALGORITHM_SALTS: Dict[str, str] = {}


def module_index(root: Optional[Path] = None) -> Dict[str, Path]:
    """Every ``repro.*`` module name -> source path (memoized for the
    default root)."""
    global _MODULE_INDEX
    if root is None:
        if _MODULE_INDEX is None:
            base = package_root()
            _MODULE_INDEX = {
                _module_name(base, p): p for p in sorted(base.rglob("*.py"))
            }
        return _MODULE_INDEX
    return {_module_name(root, p): p for p in sorted(root.rglob("*.py"))}


# ----------------------------------------------------------------------
# Module facts, memoized per process and on disk
# ----------------------------------------------------------------------
class _Facts(NamedTuple):
    """What the salts need from one module file."""

    raw: str  # blake2b of the file's bytes: the memo key
    digest: str  # source_digest of its text
    imports: FrozenSet[str]  # module_imports of its text


def _raw_digest(raw: bytes) -> str:
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def _source_facts(raw: bytes, module: str, is_package: bool) -> _Facts:
    """One module's facts from a single parse.  The bytes are decoded
    as ``Path.read_text`` decodes them (UTF-8, universal newlines), so
    the facts equal :func:`source_digest` and :func:`module_imports`
    over the text ``read_text`` returns."""
    text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    tree = _parse(text)
    if tree is None:
        return _Facts(_raw_digest(raw), _digest(text), frozenset())
    imports = frozenset(_tree_imports(tree, module, is_package))
    return _Facts(_raw_digest(raw), _digest(_normal_form(tree)), imports)


_FACTS: Dict[str, _Facts] = {}
_MEMO_STAMP: Optional[str] = None


def _memo_stamp() -> str:
    """Raw-bytes digest of this file, read once per process: the
    normalizer and the import parser live here, so editing them voids
    every memo entry."""
    global _MEMO_STAMP
    if _MEMO_STAMP is None:
        _MEMO_STAMP = _raw_digest(Path(__file__).read_bytes())
    return _MEMO_STAMP


def _memo_path() -> Optional[Path]:
    """The memo file, or None where the interpreter caches no bytecode.
    The name carries the cache tag because ``ast.dump`` output differs
    between Python versions."""
    tag = sys.implementation.cache_tag
    if tag is None:
        return None
    return package_root() / "__pycache__" / f"salt-memo.{tag}.json"


def _load_memo(path: Optional[Path]) -> Dict[str, Any]:
    """The memo's module entries; empty when the file is missing,
    unreadable or malformed, or was stamped by another
    ``versioning.py``."""
    if path is None:
        return {}
    try:
        memo = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return {}
    if isinstance(memo, dict) and memo.get("versioning") == _memo_stamp():
        modules = memo.get("modules")
        if isinstance(modules, dict):
            return modules
    return {}


def _memo_entry(entry: Any, raw: str) -> Optional[_Facts]:
    """The facts a memo entry holds for a file whose bytes digest to
    ``raw``, or None when the entry is for other bytes or malformed."""
    if isinstance(entry, dict) and entry.get("raw") == raw:
        digest, imports = entry.get("digest"), entry.get("imports")
        if isinstance(digest, str) and isinstance(imports, list) and all(
            isinstance(name, str) for name in imports
        ):
            return _Facts(raw, digest, frozenset(imports))
    return None


def _write_memo(path: Path, old: Mapping[str, Any]) -> None:
    """Rewrite the memo with this process's facts plus the old entries
    that still match their files, dropping the rest.  The memo is
    written by :func:`repro.artifacts.write_atomic`; any ``OSError``
    (a read-only install, say) leaves the memo as it was."""
    try:
        modules = {}
        for module, source in module_index().items():
            facts = _FACTS.get(module)
            if facts is None and module in old:
                facts = _memo_entry(old[module], _raw_digest(source.read_bytes()))
            if facts is not None:
                modules[module] = {
                    "raw": facts.raw,
                    "digest": facts.digest,
                    "imports": sorted(facts.imports),
                }
        memo = {"versioning": _memo_stamp(), "modules": modules}
        data = json.dumps(memo, separators=(",", ":")).encode("utf-8")
        write_atomic(path, data)
    except OSError:
        pass


def _module_facts(modules: Iterable[str]) -> Dict[str, _Facts]:
    """Digest and import candidates of each named module.

    Facts known to this process are reused.  For the rest, each file's
    bytes are read and digested and looked up in the on-disk memo; only
    the misses are parsed, and a lookup with misses rewrites the memo
    once.  A hit is trusted as a ``.pyc`` is: the memo lives in the
    package's ``__pycache__`` and is keyed by content.
    """
    modules = list(modules)
    todo = [m for m in modules if m not in _FACTS]
    if todo:
        index = module_index()
        path = _memo_path()
        memo = _load_memo(path)
        missed = False
        for module in todo:
            source = index[module]
            raw = source.read_bytes()
            facts = _memo_entry(memo.get(module), _raw_digest(raw))
            if facts is None:
                facts = _source_facts(raw, module, source.name == "__init__.py")
                missed = True
            _FACTS[module] = facts
        if missed and path is not None:
            _write_memo(path, memo)
    return {m: _FACTS[m] for m in modules}


# ----------------------------------------------------------------------
# Subsystem salts
# ----------------------------------------------------------------------
def subsystem_modules(name: str) -> List[str]:
    """All package modules belonging to one subsystem."""
    if name not in SUBSYSTEMS:
        raise KeyError(
            f"unknown subsystem {name!r}; known: {sorted(SUBSYSTEMS)}"
        )
    return [m for m in module_index() if subsystem_of(m) == name]


def subsystem_salt(name: str) -> str:
    """The derived code-version salt for one subsystem (memoized)."""
    salt = _SUBSYSTEM_SALTS.get(name)
    if salt is None:
        facts = _module_facts(subsystem_modules(name))
        salt = _fold((m, f.digest) for m, f in facts.items())
        _SUBSYSTEM_SALTS[name] = salt
    return salt


def salt_vector() -> Dict[str, str]:
    """Every subsystem's current salt — the diagnostics vector
    ``repro cache info`` prints."""
    return {name: subsystem_salt(name) for name in SUBSYSTEMS}


# ----------------------------------------------------------------------
# Per-algorithm salts (import closure within the algorithms subsystem)
# ----------------------------------------------------------------------
def _tree_imports(tree: ast.Module, module: str, is_package: bool) -> Set[str]:
    # A package ``__init__`` resolves relative imports against itself,
    # any other module against its parent.
    package = module if is_package else module.rpartition(".")[0] or module
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                if node.level > 1:
                    parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if base:
                found.add(base)
                # ``from pkg import mod`` names submodules, not attrs;
                # keep both candidates and let the index filter.
                for alias in node.names:
                    found.add(f"{base}.{alias.name}")
    return found


def module_imports(
    source: str, module: str, *, is_package: bool = False
) -> Set[str]:
    """Module names a source text imports (absolute and relative,
    top-level and function-local alike), as candidate names — callers
    intersect with the real module index.  ``is_package`` marks
    ``module`` as a package ``__init__``."""
    tree = _parse(source)
    return set() if tree is None else _tree_imports(tree, module, is_package)


def _closure(
    start: str, imports: Mapping[str, Iterable[str]], barriers: Iterable[str]
) -> Set[str]:
    barriers = set(barriers)
    seen: Set[str] = set()
    frontier = [start]
    while frontier:
        mod = frontier.pop()
        if mod in seen or mod not in imports:
            continue
        seen.add(mod)
        if mod in barriers:
            continue
        for cand in imports[mod]:
            if cand in imports and cand not in seen:
                frontier.append(cand)
    return seen


def import_closure(
    start: str,
    sources: Mapping[str, str],
    *,
    barriers: Iterable[str] = (),
) -> Set[str]:
    """Transitive import closure of ``start`` restricted to the modules
    in ``sources``.  ``barriers`` are included when reached but never
    expanded through (the registry pattern).  A module counts as a
    package when ``sources`` holds one of its submodules.  Pure over
    the given mapping, so tests drive it with synthetic packages."""
    packages = {m.rpartition(".")[0] for m in sources}
    imports = {
        m: module_imports(text, m, is_package=m in packages)
        for m, text in sources.items()
    }
    return _closure(start, imports, barriers)


def _algorithm_module(algorithm: str) -> Optional[str]:
    """The module defining an algorithm, or None when it cannot be
    pinned to one inside the algorithms subsystem."""
    if ":" in algorithm:
        # Dotted-path cells (tests' fault injectors); only repro-internal
        # paths get fine granularity.
        module = algorithm.split(":", 1)[0]
        return module if module in module_index() else None
    try:
        from repro.core.registry import get_factory

        factory = get_factory(algorithm)
    except KeyError:
        return None
    module = getattr(factory, "__module__", None)
    if not isinstance(factory, type):
        # Lambda factories live in the registry module; the instance's
        # class names the real implementation module.
        try:
            module = type(factory()).__module__
        except Exception:  # pragma: no cover - exotic factory
            pass
    return module if module and module in module_index() else None


def algorithm_salt(algorithm: str) -> str:
    """Salt covering exactly the code one algorithm's cells execute
    inside the algorithms subsystem: the defining module's import
    closure (restricted to ``repro.core.* + repro.advice.*``) plus the
    registry barrier modules.  Algorithms that cannot be pinned to a
    module fall back to the whole-subsystem salt — always correct, just
    coarser."""
    salt = _ALGORITHM_SALTS.get(algorithm)
    if salt is not None:
        return salt
    module = _algorithm_module(algorithm)
    if module is None or subsystem_of(module) != "algorithms":
        salt = subsystem_salt("algorithms")
    else:
        facts = _module_facts(subsystem_modules("algorithms"))
        members = _closure(
            module,
            {m: f.imports for m, f in facts.items()},
            ALGORITHM_BARRIER_MODULES,
        )
        members.update(b for b in ALGORITHM_BARRIER_MODULES if b in facts)
        salt = _fold((m, facts[m].digest) for m in sorted(members))
    _ALGORITHM_SALTS[algorithm] = salt
    return salt


def cell_salt_vector(
    algorithm: str, *, controlled: bool = False
) -> Dict[str, str]:
    """The salts one run of ``algorithm`` depends on.

    Sweep cells, check replays and frontier-atlas entries are stamped
    with them.  A run is a cell result: engine + graphs + the
    algorithm's import closure decide it.  Controlled runs
    (choice-prefix incumbents, controller cells, replays) additionally
    execute the controlled loop in ``repro.check``, so
    ``controlled=True`` folds the check salt in.  The ``opt`` salt is
    deliberately absent: optimizers choose which schedules to *try*,
    but an entry records only what a schedule *scored* — re-tuning the
    search must never stale a frontier the executor can still
    reproduce bit-identically.
    """
    salts = {
        "engine": subsystem_salt("engine"),
        "graphs": subsystem_salt("graphs"),
        "algorithms": algorithm_salt(algorithm),
    }
    if controlled:
        salts["check"] = subsystem_salt("check")
    return salts


def stale_salts(algorithm: Any, salts: Any) -> str:
    """Why an artifact stamped ``salts`` for ``algorithm`` no longer
    replays under the current code, or ``""`` while it does.

    The reason is ``"legacy"`` when ``salts`` is not an object or
    ``algorithm`` is not a string, and otherwise the ``+``-joined
    names of the moved salts (``"engine"``, ``"algorithms+engine"``).
    A stamp holding ``check`` is a controlled run's.  An algorithm
    that is neither registered nor a ``module:Attr`` path cannot run,
    so its ``algorithms`` salt counts as moved."""
    if not isinstance(salts, dict) or not isinstance(algorithm, str):
        return "legacy"
    current = cell_salt_vector(algorithm, controlled="check" in salts)
    moved = {
        name for name, salt in current.items() if salts.get(name) != salt
    }
    if ":" not in algorithm:
        from repro.core.registry import algorithm_names

        if algorithm not in algorithm_names():
            moved.add("algorithms")
    return "+".join(sorted(moved))
