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
        import json

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

    def test_replay_salt_vector_shape(self):
        vec = V.replay_salt_vector()
        assert set(vec) == {"engine", "check"}

    def test_atlas_salt_vector_shape(self):
        plain = V.atlas_salt_vector("flooding")
        assert plain == V.cell_salt_vector("flooding")
        controlled = V.atlas_salt_vector("flooding", controlled=True)
        assert set(controlled) == {
            "engine", "graphs", "algorithms", "check",
        }
        assert controlled["check"] == V.subsystem_salt("check")
        # The opt salt itself joins neither: strategy edits must not
        # invalidate committed frontier entries.
        assert "opt" not in plain and "opt" not in controlled


# ----------------------------------------------------------------------
# Edit sensitivity over a real (sandboxed) package copy
# ----------------------------------------------------------------------
class TestEditSensitivity:
    def _salts_for_tree(self, tmp_path, edit=None):
        """Copy the real package, optionally apply ``edit``, and
        derive salts in a subprocess rooted at the copy (the memoized
        module walk binds to the imported package location)."""
        import shutil

        root = tmp_path / "site"
        shutil.copytree(V.package_root(), root / "repro")
        if edit is not None:
            target, transform = edit
            path = root / "repro" / target
            path.write_text(transform(path.read_text()))
        script = (
            "import json\n"
            "from repro import versioning as V\n"
            "print(json.dumps({'vector': V.salt_vector(), "
            "'flooding': V.algorithm_salt('flooding'), "
            "'spanner': V.algorithm_salt('spanner-advice')}))\n"
        )
        import json as _json
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = str(root)
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout
        return _json.loads(out)

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
