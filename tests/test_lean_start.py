"""The harness starts and runs without numpy or scipy.

Only the bulk lane (``repro.sim.bulk``) uses them, and only when a run
asks for it; the power-law fits are pure Python.  Each check runs in a
fresh interpreter, since this test process may have imported both.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

#: Prepended to a script: a meta-path finder that makes every numpy and
#: scipy import fail, as on an install without the bulk extras.
BLOCK = """
import sys

class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _Blocked())
"""


def _run(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_start_loads_neither_numpy_nor_scipy():
    out = _run(
        """
        import sys
        import repro, repro.experiments, repro.__main__
        print(sorted(m for m in sys.modules
                     if m.partition(".")[0] in ("numpy", "scipy")))
        """
    )
    assert out.strip() == "[]"


def test_runs_with_numpy_and_scipy_blocked():
    out = _run(
        BLOCK
        + textwrap.dedent(
            """
            from repro.analysis.fitting import fit_power_law
            from repro.core import Flooding
            from repro.experiments.parallel import ParallelSweepExecutor
            from repro.experiments.sweeps import parallel_sweep
            from repro.graphs.generators import path_graph
            from repro.models.knowledge import Knowledge, make_setup
            from repro.sim import Adversary, UnitDelay, WakeSchedule, run_wakeup
            from repro.sim.bulk import HAS_BULK, BulkUnavailable

            assert not HAS_BULK
            rows, outcomes = parallel_sweep(
                "flooding",
                {"kind": "er_single_wake", "avg_degree": 4.0, "seed": 1},
                sizes=[16, 32],
                executor=ParallelSweepExecutor(workers=0, use_cache=False),
                knowledge="KT0",
                trials=1,
            )
            assert [r.n for r in rows] == [16, 32]
            assert all(o.ok for o in outcomes)
            fit = fit_power_law([r.n for r in rows], [r.messages for r in rows])
            assert fit.exponent > 0

            setup = make_setup(path_graph(6), knowledge=Knowledge.KT0, seed=1)
            adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
            try:
                run_wakeup(setup, Flooding(), adversary, engine="bulk", seed=1)
            except BulkUnavailable as exc:
                print("bulk:", exc)
            """
        )
    )
    assert "bulk: the bulk frontier engine needs numpy and scipy" in out
