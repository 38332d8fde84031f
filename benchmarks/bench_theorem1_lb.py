"""Table 1, row "Theorem 1" (lower bound) — the advice/message frontier
on class 𝒢, KT0 with advice.

Paper claim: expected messages <= n^2 / (2^{beta+4} log2 n) forces
average advice Omega(beta).  Executable validation: the matching
upper bound (prefix advice) realizes every point of the frontier —
messages * 2^beta stays ~n^2 while advice grows linearly in beta — and
the oracle's advice measurably carries ~beta bits of information about
each hidden pendant port (the Lemma-3 entropy argument).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.information import mutual_information
from repro.analysis.report import print_table
from repro.core.prefix_advice import PrefixAdvice
from repro.lowerbounds.graph_g import build_class_g
from repro.lowerbounds.theorem1 import (
    advice_port_samples,
    run_prefix_tradeoff,
    theorem1_message_bound,
)
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


@pytest.fixture(scope="module")
def frontier():
    return run_prefix_tradeoff(n=48, betas=[0, 1, 2, 3, 4, 5], trials=2, seed=3)


def test_theorem1_frontier_table(frontier):
    rows = [
        {
            "beta": p.beta,
            "messages": p.messages,
            "msgs*2^b": p.product,
            "adv_avg": p.advice_avg_bits,
            "thm1_threshold": p.lb_message_bound,
        }
        for p in frontier
    ]
    print_table(
        rows,
        title="Theorem 1 frontier on 𝒢(48): prefix advice (n^2/2^beta msgs)",
    )


def test_theorem1_geometric_message_decay(frontier):
    msgs = [p.messages for p in frontier]
    assert msgs == sorted(msgs, reverse=True)
    # 5 doublings of the advice-bucket resolution should cut the
    # center-probe traffic by >= 8x.
    assert msgs[-1] < msgs[0] / 8


def test_theorem1_product_stays_quadratic(frontier):
    """messages*2^beta (minus the O(n·2^beta) broadcaster overhead)
    stays within a constant factor of n^2 across the whole sweep."""
    core = [p.product - p.n * 2**p.beta for p in frontier]
    assert max(core) <= 4 * min(core)
    n = frontier[0].n
    for val in core:
        assert n**2 / 4 <= val <= 4 * n**2


def test_theorem1_no_point_violates_the_bound(frontier):
    """Whenever a point's messages are below the Theorem-1 threshold,
    its average advice respects Omega(beta)."""
    for p in frontier:
        if p.messages <= theorem1_message_bound(p.n, p.beta):
            assert p.advice_avg_bits >= (p.beta - 2) / 6


def test_theorem1_information_content():
    """The Lemma-3 core, measured: I[X_i : advice] grows ~1 bit per
    unit of beta and never exceeds beta."""
    rows = []
    for beta in (0, 1, 2, 3, 4):
        pairs = advice_port_samples(n=16, beta=beta, samples=500, seed=beta)
        mi = mutual_information(pairs)
        rows.append({"beta": beta, "I[X:Y] bits": mi})
        assert mi <= beta + 0.6
    print_table(rows, title="Theorem 1: advice/port mutual information")
    mis = [r["I[X:Y] bits"] for r in rows]
    assert mis == sorted(mis)
    assert mis[4] - mis[0] >= 2.0


def test_theorem1_representative_run(benchmark):
    inst = build_class_g(48)
    setup = inst.make_setup(seed=1)
    adversary = Adversary(WakeSchedule.all_at_once(inst.centers), UnitDelay())

    def run():
        return run_wakeup(
            setup, PrefixAdvice(beta=3), adversary, engine="async", seed=2
        )

    result = benchmark(run)
    assert result.all_awake


def test_theorem1_empirical_adversarial_frontier():
    """The model checker's searched adversary, reported next to the
    analytic bound: on class 𝒢 the beam-searched schedule must meet or
    beat the best UniformRandomDelay sample at the same n, and the
    schedule is a replayable artifact (see docs/modelcheck.md)."""
    from repro.check.controller import ReplayDelay, replay_mismatch
    from repro.check.worlds import run_schedule
    from repro.check.worstcase import random_baseline, worstcase_search
    from repro.core.flooding import Flooding

    inst = build_class_g(8)
    algo = Flooding()

    def world():
        setup = inst.make_setup(seed=1)
        sched = WakeSchedule({v: 0.0 for v in inst.centers})
        return setup, algo, Adversary(sched, UnitDelay())

    rows = []
    for objective in ("time", "messages"):
        wc = worstcase_search(
            world, objective, beam_width=3, horizon=6, branch_cap=2
        )
        base = random_baseline(world, objective, trials=16, seed=9)
        rows.append(
            {
                "objective": objective,
                "random best": round(base, 4),
                "searched": round(wc.score, 4),
                "policy": wc.policy,
            }
        )
        assert wc.score >= base
        # The frontier point replays bit-identically in the plain engine.
        replayed = run_schedule(
            world, seed=0, delays=ReplayDelay(wc.delays)
        )[2]
        assert not replay_mismatch(replayed.summary(), wc.result.summary())
    print_table(
        rows, title="Theorem 1: empirical adversarial frontier on 𝒢(8)"
    )


def test_theorem1_committed_atlas_frontier():
    """The committed stochastic frontier (``ATLAS.json``) at sizes the
    beam search cannot reach, reported next to the small-n frontier
    above: every live flooding/time entry must strictly beat its
    recorded random-delay baseline and replay bit-identically through
    the plain engine.  Stale entries (salts superseded by code edits)
    are shown but not asserted — ``repro atlas run`` refreshes them."""
    from pathlib import Path

    from repro.opt import entry_is_stale, load_atlas, replay_entry

    path = Path(__file__).resolve().parents[1] / "ATLAS.json"
    if not path.exists():
        pytest.skip("no committed ATLAS.json")
    atlas = load_atlas(path)
    entries = [
        (key, e)
        for key, e in sorted(atlas.get("entries", {}).items())
        if e["algorithm"] == "flooding" and e["objective"] == "time"
    ]
    if not entries:
        pytest.skip("no flooding/time entries in the committed atlas")
    rows = []
    for key, entry in entries:
        stale = entry_is_stale(entry)
        rows.append(
            {
                "n": entry["n"],
                "optimizer": entry["optimizer"],
                "random best": round(float(entry["baseline"]), 4),
                "searched": round(float(entry["score"]), 4),
                "salts": "stale" if stale else "live",
            }
        )
        if stale:
            continue
        assert float(entry["score"]) > float(entry["baseline"]), key
        ok, detail = replay_entry(entry)
        assert ok, f"{key}: {detail}"
    print_table(
        rows,
        title="Theorem 1: committed stochastic frontier (ATLAS.json)",
    )
