"""Per-subsystem salt derivation (repro.versioning).

The invalidation contract PR-9 rests on:

* digests are stable — across calls and across *processes* (no
  PYTHONHASHSEED leakage, no dict-order dependence);
* comment/docstring-only edits never move a digest; code edits always
  do;
* the subsystem map is a total partition of the package — an unmapped
  module is a test failure, not a silent cache hole;
* per-algorithm salts isolate algorithms from each other: a
  spanner-advice edit must not move flooding's salt.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro import versioning as V
from repro.core.registry import algorithm_names

# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
BASE = textwrap.dedent(
    '''
    """Module docstring."""

    # a comment
    X = 1


    def f(a):
        """Docstring."""
        return a + X


    class C:
        """Docstring."""

        def m(self):
            # another comment
            return f(2)
    '''
)

DOC_EDIT = BASE.replace("Module docstring.", "Totally new words.").replace(
    "# a comment", "# different comment"
).replace('"""Docstring."""', '"""Other docs."""')

CODE_EDIT = BASE.replace("return a + X", "return a - X")


class TestNormalization:
    def test_doc_and_comment_edits_do_not_move_digest(self):
        assert V.source_digest(BASE) == V.source_digest(DOC_EDIT)

    def test_code_edit_moves_digest(self):
        assert V.source_digest(BASE) != V.source_digest(CODE_EDIT)

    def test_whitespace_reformat_does_not_move_digest(self):
        reformatted = BASE.replace("def f(a):", "def f(a,\n):")
        assert V.source_digest(BASE) == V.source_digest(reformatted)

    def test_unparsable_source_still_digests(self):
        broken = "def f(:\n"
        assert V.source_digest(broken) == V.source_digest(broken)
        assert V.source_digest(broken) != V.source_digest(broken + "# c\n")

    def test_docstring_only_module(self):
        assert V.source_digest('"""Only docs."""\n') == V.source_digest(
            '"""Other docs."""\n'
        )


# ----------------------------------------------------------------------
# Stability
# ----------------------------------------------------------------------
class TestStability:
    def test_repeated_calls_are_stable(self):
        assert V.salt_vector() == V.salt_vector()

    def test_cross_process_stability(self):
        """The same source tree must digest identically in a fresh
        interpreter (different PYTHONHASHSEED, cold caches)."""
        script = (
            "import json\n"
            "from repro import versioning as V\n"
            "print(json.dumps([V.salt_vector(), "
            "V.algorithm_salt('flooding')]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        vector, flooding = json.loads(out)
        assert vector == V.salt_vector()
        assert flooding == V.algorithm_salt("flooding")


# ----------------------------------------------------------------------
# Subsystem map completeness
# ----------------------------------------------------------------------
class TestSubsystemMap:
    def test_every_module_maps_to_exactly_one_subsystem(self):
        unmapped = []
        for module in V.module_index():
            try:
                V.subsystem_of(module)
            except KeyError:
                unmapped.append(module)
        assert not unmapped, (
            f"modules outside the subsystem map: {unmapped}; "
            "extend repro.versioning.SUBSYSTEMS"
        )

    def test_longest_prefix_wins(self):
        assert V.subsystem_of("repro.sim.runner") == "engine"
        assert V.subsystem_of("repro.models.ports") == "engine"
        assert V.subsystem_of("repro.graphs.compile") == "graphs"
        assert V.subsystem_of("repro.core.flooding") == "algorithms"
        assert V.subsystem_of("repro.advice.oracle") == "algorithms"
        assert V.subsystem_of("repro.check.controller") == "check"
        assert V.subsystem_of("repro.lowerbounds.classg") == "check"
        assert V.subsystem_of("repro.experiments.parallel") == "harness"
        assert V.subsystem_of("repro.versioning") == "harness"
        assert V.subsystem_of("repro") == "harness"

    def test_every_builtin_workload_is_graphs_code(self):
        """Workload builders decide the graph of every cell and every
        compiled topology, so they must sit under the graphs salt, which
        keys both — the harness salt keys nothing."""
        import repro.graphs.compile as compile_mod
        from repro.graphs.workloads import WORKLOADS

        assert V.subsystem_of(compile_mod.build_workload.__module__) == (
            "graphs"
        )
        for kind, factory in WORKLOADS.items():
            assert V.subsystem_of(factory.__module__) == "graphs", kind

    def test_unknown_module_raises(self):
        with pytest.raises(KeyError):
            V.subsystem_of("repro.brand_new_toplevel")
        with pytest.raises(KeyError):
            V.subsystem_of("numpy")

    def test_salt_vector_covers_every_subsystem(self):
        assert set(V.salt_vector()) == set(V.SUBSYSTEMS)

    def test_subsystem_salts_are_distinct(self):
        vec = V.salt_vector()
        assert len(set(vec.values())) == len(vec)


# ----------------------------------------------------------------------
# Import closure (pure, over synthetic sources)
# ----------------------------------------------------------------------
SYNTH = {
    "pkg.a": "import pkg.b\nfrom pkg import c\n",
    "pkg.b": "from pkg.d import thing\n",
    "pkg.c": "X = 1\n",
    "pkg.d": "def thing():\n    return 1\n",
    "pkg.e": "import pkg.a\n",
    "pkg.registry": "import pkg.a\nimport pkg.e\n",
}


class TestImportClosure:
    def test_transitive_closure(self):
        assert V.import_closure("pkg.a", SYNTH) == {
            "pkg.a",
            "pkg.b",
            "pkg.c",
            "pkg.d",
        }

    def test_closure_ignores_outside_modules(self):
        sources = {"m.x": "import os\nimport m.y\n", "m.y": "pass\n"}
        assert V.import_closure("m.x", sources) == {"m.x", "m.y"}

    def test_barrier_included_but_not_expanded(self):
        closure = V.import_closure(
            "pkg.e", SYNTH, barriers=("pkg.a",)
        )
        # pkg.a joins the closure (its digest matters) but its imports
        # (pkg.b/c/d) do not.
        assert closure == {"pkg.e", "pkg.a"}

    def test_relative_imports_resolve(self):
        sources = {
            "p.sub.m": "from . import n\nfrom ..top import t\n",
            "p.sub.n": "pass\n",
            "p.top": "t = 1\n",
        }
        assert V.import_closure("p.sub.m", sources) == {
            "p.sub.m",
            "p.sub.n",
            "p.top",
        }

    def test_package_init_resolves_against_itself(self):
        # A package __init__'s relative imports name its submodules,
        # not its siblings.
        assert "repro.core.flooding" in V.module_imports(
            "from .flooding import Flooding\n", "repro.core", is_package=True
        )
        sources = {
            "p.sub": "from .m import x\n",
            "p.sub.m": "x = 1\n",
            "p.m": "x = 2\n",
        }
        assert V.import_closure("p.sub", sources) == {"p.sub", "p.sub.m"}


# ----------------------------------------------------------------------
# Per-algorithm salts
# ----------------------------------------------------------------------
class TestAlgorithmSalts:
    def test_flooding_isolated_from_spanner_advice(self):
        assert V.algorithm_salt("flooding") != V.algorithm_salt(
            "spanner-advice"
        )

    def test_lambda_factories_resolve_their_class_module(self):
        # "greedy-spanner-advice" is a registry lambda wrapping
        # SpannerAdvice; it must share spanner-advice's salt, not fall
        # back to the whole-subsystem salt.
        assert V.algorithm_salt("greedy-spanner-advice") == V.algorithm_salt(
            "spanner-advice"
        )
        assert V.algorithm_salt("greedy-spanner-advice") != V.subsystem_salt(
            "algorithms"
        )

    def test_every_registered_algorithm_gets_a_fine_salt(self):
        # Other test modules may register test-only algorithms whose
        # defining module lives outside the package; those fall back
        # to the coarse salt by design, so only the package's own
        # algorithms are held to the fine-salt bar.
        coarse = V.subsystem_salt("algorithms")
        checked = 0
        for name in algorithm_names():
            module = V._algorithm_module(name)
            if module is None:
                continue
            checked += 1
            assert V.algorithm_salt(name) != coarse, (
                f"{name} fell back to the whole-subsystem salt"
            )
        assert checked >= 5, "registry lost its built-in algorithms"

    def test_unknown_and_external_algorithms_fall_back(self):
        coarse = V.subsystem_salt("algorithms")
        assert V.algorithm_salt("no-such-algorithm") == coarse
        assert (
            V.algorithm_salt("tests.test_parallel_executor:KillerAlgo")
            == coarse
        )

    def test_cell_salt_vector_shape(self):
        vec = V.cell_salt_vector("flooding")
        assert set(vec) == {"engine", "graphs", "algorithms"}
        assert vec["engine"] == V.subsystem_salt("engine")
        assert vec["graphs"] == V.subsystem_salt("graphs")
        assert vec["algorithms"] == V.algorithm_salt("flooding")

    def test_replays_are_stamped_as_controlled_runs(self):
        # A replay is a controlled run: its world comes from graphs
        # code and it runs the algorithm's code under the check loop.
        from repro.check.controller import ScheduleLog, make_replay

        replay = make_replay(
            algorithm="flooding", n=4, log=ScheduleLog(),
            schedule_times={0: 0.0},
        )
        assert replay["salts"] == V.cell_salt_vector(
            "flooding", controlled=True
        )

    def test_controlled_salt_vector_shape(self):
        plain = V.cell_salt_vector("flooding")
        controlled = V.cell_salt_vector("flooding", controlled=True)
        assert set(controlled) == {
            "engine", "graphs", "algorithms", "check",
        }
        assert controlled["check"] == V.subsystem_salt("check")
        assert {k: v for k, v in controlled.items() if k != "check"} == plain
        # The opt salt itself joins neither: strategy edits must not
        # invalidate committed frontier entries.
        assert "opt" not in plain and "opt" not in controlled


class TestStaleSalts:
    """:func:`repro.versioning.stale_salts`, the one staleness rule of
    cell envelopes, check replays and atlas entries."""

    def test_moved_salts_are_named(self):
        controlled = V.cell_salt_vector("flooding", controlled=True)
        assert V.stale_salts("flooding", controlled) == ""
        moved = dict(controlled, engine="0" * 16, check="0" * 16)
        assert V.stale_salts("flooding", moved) == "check+engine"
        # A stamp without ``check`` is a plain run's, and salts it does
        # not depend on are ignored.
        plain = dict(V.cell_salt_vector("flooding"), opt="0" * 16)
        assert V.stale_salts("flooding", plain) == ""

    def test_malformed_stamps_are_legacy(self):
        salts = V.cell_salt_vector("flooding")
        for algorithm in (None, 7, ["flooding"]):
            assert V.stale_salts(algorithm, salts) == "legacy"
        for salts in (None, [1, 2], "salts"):
            assert V.stale_salts("flooding", salts) == "legacy"

    def test_unregistered_name_moves_the_algorithms_salt(self):
        # algorithm_salt falls back to the subsystem salt, so the stamp
        # matches it; the name still cannot run.
        salts = V.cell_salt_vector("no-such-algorithm")
        assert V.stale_salts("no-such-algorithm", salts) == "algorithms"

    def test_module_path_outside_the_package_stays_live(self):
        name = "tests.test_parallel_executor:KillerAlgo"
        assert V.stale_salts(name, V.cell_salt_vector(name)) == ""


# ----------------------------------------------------------------------
# Edit sensitivity over a real (sandboxed) package copy
# ----------------------------------------------------------------------
def _copy_package(dest, edit=None):
    """Copy the real package (its ``__pycache__`` and salt memo too)
    under ``dest`` and optionally apply ``edit``; returns the directory
    to put on ``PYTHONPATH``."""
    root = dest / "site"
    shutil.copytree(V.package_root(), root / "repro")
    if edit is not None:
        target, transform = edit
        path = root / "repro" / target
        path.write_text(transform(path.read_text()))
    return root


def _salts_in(root):
    """Derive salts in a subprocess rooted at ``root`` (the memoized
    module walk binds to the imported package location)."""
    script = (
        "import json\n"
        "from repro import versioning as V\n"
        "print(json.dumps({'vector': V.salt_vector(), "
        "'flooding': V.algorithm_salt('flooding'), "
        "'spanner': V.algorithm_salt('spanner-advice')}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root)
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout
    return json.loads(out)


#: Per salted artifact kind, a script that saves one at ``argv[1]``
#: and one that prints whether its reader calls it stale.
SALTED_ARTIFACTS = {
    "cell": (
        "import sys\n"
        "from repro.experiments.parallel import CellSpec, "
        "ParallelSweepExecutor\n"
        "ParallelSweepExecutor(workers=0, cache_dir=sys.argv[1], "
        "topology_dir=sys.argv[1] + '-topo').run([CellSpec('flooding', 8)])\n",
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.experiments.parallel import classify_cell_envelope\n"
        "(path,) = Path(sys.argv[1]).rglob('*.json')\n"
        "print(classify_cell_envelope(path)[0] == 'stale')\n",
    ),
    "replay": (
        "import sys\n"
        "from repro.check.controller import ScheduleLog, make_replay, "
        "save_replay\n"
        "save_replay(make_replay(algorithm='flooding', n=4, "
        "log=ScheduleLog(), schedule_times={0: 0.0}), sys.argv[1])\n",
        "import sys\n"
        "from repro.check.controller import replay_is_stale\n"
        "print(replay_is_stale(sys.argv[1]))\n",
    ),
    "atlas-entry": (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from repro.experiments.parallel import CellSpec\n"
        "from repro.opt.atlas import make_entry\n"
        "from repro.opt.genomes import DelayVectorGenome\n"
        "entry = make_entry(spec=CellSpec('flooding', 8), "
        "genome=DelayVectorGenome((0.5,)), objective='time', score=1.0, "
        "baseline=0.5, baseline_trials=1, optimizer='test', "
        "expect={'messages': 7, 'bits': 7, 'time': 1.0})\n"
        "Path(sys.argv[1]).write_text(json.dumps(entry))\n",
        "import json, sys\n"
        "from pathlib import Path\n"
        "from repro.opt.atlas import entry_is_stale\n"
        "print(entry_is_stale(json.loads(Path(sys.argv[1]).read_text())))\n",
    ),
}


class TestEditSensitivity:
    def _salts_for_tree(self, tmp_path, edit=None):
        """Salts of a copy of the real package, optionally edited."""
        return _salts_in(_copy_package(tmp_path, edit))

    def test_algorithm_edit_isolated(self, tmp_path):
        base = self._salts_for_tree(tmp_path)
        edited = self._salts_for_tree(
            tmp_path / "edited",
            edit=(
                "core/spanner_advice.py",
                lambda s: s + "\nSMOKE_TOKEN = 1\n",
            ),
        )
        # Only the algorithms subsystem moved...
        assert edited["vector"]["algorithms"] != base["vector"]["algorithms"]
        for sub in ("engine", "graphs", "check", "opt", "harness"):
            assert edited["vector"][sub] == base["vector"][sub]
        # ...and within it, spanner-advice moved while flooding held.
        assert edited["spanner"] != base["spanner"]
        assert edited["flooding"] == base["flooding"]

    def test_comment_edit_moves_nothing(self, tmp_path):
        base = self._salts_for_tree(tmp_path)
        edited = self._salts_for_tree(
            tmp_path / "edited",
            edit=(
                "core/spanner_advice.py",
                lambda s: s + "\n# a trailing comment\n",
            ),
        )
        assert edited == base

    def test_engine_edit_moves_engine_only(self, tmp_path):
        base = self._salts_for_tree(tmp_path)
        edited = self._salts_for_tree(
            tmp_path / "edited",
            edit=(
                "sim/runner.py",
                lambda s: s + "\nSMOKE_TOKEN = 2\n",
            ),
        )
        assert edited["vector"]["engine"] != base["vector"]["engine"]
        for sub in ("graphs", "algorithms", "check", "opt", "harness"):
            assert edited["vector"][sub] == base["vector"][sub]
        # Every algorithm's cells still depend on the engine salt via
        # cell_salt_vector, but the *algorithm* salts hold.
        assert edited["flooding"] == base["flooding"]
        assert edited["spanner"] == base["spanner"]

    def test_workload_edit_moves_graphs_only(self, tmp_path):
        """A workload-builder edit (say, a changed graph seed) moves the
        graphs salt, so every cell key and topology key moves with it
        and a warm cache cannot serve rows built on the old graphs."""
        base = self._salts_for_tree(tmp_path)
        edited = self._salts_for_tree(
            tmp_path / "edited",
            edit=(
                "graphs/workloads.py",
                lambda s: s.replace("seed=seed + n)", "seed=seed + n + 1)"),
            ),
        )
        assert edited["vector"]["graphs"] != base["vector"]["graphs"]
        for sub in ("engine", "algorithms", "check", "opt", "harness"):
            assert edited["vector"][sub] == base["vector"][sub]

    def test_graphs_edit_stales_saved_replays(self, tmp_path):
        """Every salted artifact saved before a graphs edit reads stale
        after it: cells and the checker's worlds are built by graphs
        code.  Each kind is written by its own writer and judged by its
        own reader, over one pair of package copies."""
        base = _copy_package(tmp_path)
        edited = _copy_package(
            tmp_path / "edited",
            edit=(
                "graphs/workloads.py",
                lambda s: s.replace("seed=seed + n)", "seed=seed + n + 1)"),
            ),
        )

        def run(root, script, path):
            env = dict(os.environ, PYTHONPATH=str(root))
            return subprocess.run(
                [sys.executable, "-c", script, str(path)],
                capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()

        for kind, (save, check) in SALTED_ARTIFACTS.items():
            path = tmp_path / kind
            run(base, save, path)
            assert run(base, check, path) == "False", kind
            assert run(edited, check, path) == "True", kind

    def test_opt_edit_moves_opt_only(self, tmp_path):
        """An optimizer-strategy edit moves the opt salt and nothing
        else — search code picks candidates but never executes them,
        so no cell cache entry (and no atlas salt vector) depends on
        it."""
        base = self._salts_for_tree(tmp_path)
        edited = self._salts_for_tree(
            tmp_path / "edited",
            edit=(
                "opt/optimizers.py",
                lambda s: s + "\nSMOKE_TOKEN = 3\n",
            ),
        )
        assert edited["vector"]["opt"] != base["vector"]["opt"]
        for sub in ("engine", "graphs", "algorithms", "check",
                    "harness"):
            assert edited["vector"][sub] == base["vector"][sub]


# ----------------------------------------------------------------------
# On-disk salt memo
# ----------------------------------------------------------------------
def _memo_file(root):
    return root / "repro" / "__pycache__" / V._memo_path().name


def _this_process_salts():
    return {
        "vector": V.salt_vector(),
        "flooding": V.algorithm_salt("flooding"),
        "spanner": V.algorithm_salt("spanner-advice"),
    }


def _poison(memo, stamp):
    """A memo whose entries keep their keys but carry wrong digests,
    under ``stamp``: salts computed from it would move."""
    modules = {
        m: dict(e, digest="0" * 32) for m, e in memo["modules"].items()
    }
    return {"versioning": stamp, "modules": modules}


def _wrong_shapes(memo, stamp):
    """Right stamp and keys, wrongly typed values."""
    modules = {
        m: {"raw": e["raw"], "digest": 7, "imports": "repro"}
        for m, e in memo["modules"].items()
    }
    return {"versioning": stamp, "modules": modules}


class TestSaltMemo:
    """The memo is a pure cache: no state of it changes a salt."""

    def test_facts_equal_recomputation_from_text(self):
        for module, path in V.module_index().items():
            text = path.read_text(encoding="utf-8")
            is_package = path.name == "__init__.py"
            want = (
                V.source_digest(text),
                V.module_imports(text, module, is_package=is_package),
            )
            parsed = V._source_facts(path.read_bytes(), module, is_package)
            known = V._module_facts([module])[module]
            for facts in (parsed, known):
                assert (facts.digest, set(facts.imports)) == want, module

    def test_bytes_decode_as_read_text(self, tmp_path):
        # CRLF and lone CR line ends: the unparsable-text fallback
        # digests the text itself, so the newline translation shows.
        for raw in (b"def f(:\r\n", b"x = 1\ry = 2\r\n"):
            path = tmp_path / "m.py"
            path.write_bytes(raw)
            facts = V._source_facts(raw, "m", False)
            assert facts.digest == V.source_digest(
                path.read_text(encoding="utf-8")
            )

    def test_cold_and_memo_runs_agree(self, tmp_path):
        root = _copy_package(tmp_path)
        memo = _memo_file(root)
        memo.unlink(missing_ok=True)
        cold = _salts_in(root)
        written = memo.stat()
        warm = _salts_in(root)
        assert warm == cold == _this_process_salts()
        # Every lookup hit, so the memo was not rewritten.
        assert memo.stat().st_ino == written.st_ino
        assert memo.stat().st_mtime_ns == written.st_mtime_ns

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda memo: b"\x80\x00 not json {",
            lambda memo: json.dumps(_wrong_shapes(memo, V._memo_stamp())).encode(),
            lambda memo: b"[1, 2, 3]",
            lambda memo: json.dumps(_poison(memo, "f" * 32)).encode(),
        ],
        ids=["garbage", "wrong-shape-entries", "wrong-shape", "foreign-stamp"],
    )
    def test_bad_memo_is_ignored_and_rewritten(self, tmp_path, spoil):
        root = _copy_package(tmp_path)
        memo = _memo_file(root)
        memo.unlink(missing_ok=True)
        cold = _salts_in(root)
        memo.write_bytes(spoil(json.loads(memo.read_bytes())))
        assert _salts_in(root) == cold
        rewritten = json.loads(memo.read_bytes())
        assert rewritten["versioning"] == V._memo_stamp()
        assert set(rewritten["modules"]) == set(V.module_index())

    def test_unwritable_pycache_is_harmless(self, tmp_path):
        # Root ignores file modes, so the cache directory is made a
        # regular file instead: every read and write of it fails.
        root = _copy_package(tmp_path)
        cache = root / "repro" / "__pycache__"
        shutil.rmtree(cache)
        cache.write_text("not a directory\n")
        assert _salts_in(root) == _this_process_salts()
        assert cache.read_text() == "not a directory\n"
