"""The committed frontier atlas (repro.opt.atlas): entry identity,
monotone merge, structural checking, plain-engine replay, the
end-to-end improvement pass, and the CLI.

The replay property at the heart of the subsystem: *every* optimizer
incumbent — both genome kinds, any laziness — replays bit-identically
through the plain engine from its saved entry.
"""

import json
import re

import pytest

from repro.errors import ReproError
from repro.experiments.parallel import ParallelSweepExecutor
from repro.opt.atlas import (
    ATLAS_KIND,
    check_atlas,
    empty_atlas,
    entry_is_stale,
    entry_key,
    improve_atlas,
    load_atlas,
    make_entry,
    merge_entry,
    plain_replay_spec,
    replay_entry,
    save_atlas,
)
from repro.opt.evaluate import (
    CellEvaluator,
    check_world_spec,
    controlled_log_for,
)
from repro.opt.genomes import (
    ChoicePrefixGenome,
    ChoicePrefixSpace,
    DelayVectorGenome,
    DelayVectorSpace,
)


#: Atlas files that are not an atlas: JSON ``null``, bytes that are
#: not UTF-8, a write cut short, and entries that are not an object.
MALFORMED_ATLASES = {
    "null": b"null",
    "not-utf8": b"\xff\xfe{}",
    "torn": b'{"kind": "repro-opt-at',
    "entries-list": b'{"kind": "repro-opt-atlas", "version": 1, '
                    b'"entries": []}',
}


def serial_executor(tmp_path):
    return ParallelSweepExecutor(
        workers=0, cache_dir=tmp_path / "cache",
        topology_dir=tmp_path / "topo",
    )


def entry_for(tmp_path, genome, n=8, objective="time", seed=0):
    """Evaluate one genome and assemble its (replay-verified) entry."""
    base = check_world_spec("flooding", n, seed=seed)
    ev = CellEvaluator(serial_executor(tmp_path), base, objective)
    (score,) = ev.evaluate([genome])
    assert score is not None
    spec = ev.spec_for(genome)
    out = ev.executor.run([spec])[0]
    expect = {
        "messages": out.result.messages,
        "bits": out.result.bits,
        "time": out.result.time,
    }
    delays = None
    if genome.controlled:
        _, log = controlled_log_for(spec)
        delays = dict(log.delays)
    return make_entry(
        spec=spec,
        genome=genome,
        objective=objective,
        score=score,
        baseline=score - 1.0,
        baseline_trials=4,
        optimizer="test",
        expect=expect,
        delays=delays,
    )


# ----------------------------------------------------------------------
# The replay property
# ----------------------------------------------------------------------
class TestReplayProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delay_vector_incumbents_replay(self, tmp_path, seed):
        import random

        space = DelayVectorSpace(length=12)
        genome = space.sample(random.Random(seed))
        entry = entry_for(tmp_path, genome, seed=seed)
        ok, detail = replay_entry(entry)
        assert ok, detail

    @pytest.mark.parametrize("laziness", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_choice_prefix_incumbents_replay(
        self, tmp_path, laziness, seed
    ):
        """Controlled incumbents replay through the *plain* heap from
        the recorded per-seq delay map, across the whole laziness
        range — not just the beam search's laziness-1.0 regime."""
        import random

        space = ChoicePrefixSpace(
            horizon=12, branch_cap=4, laziness=laziness
        )
        genome = space.sample(random.Random(seed))
        entry = entry_for(tmp_path, genome, seed=seed)
        assert entry["delays"]
        ok, detail = replay_entry(entry)
        assert ok, detail

    def test_lenient_controller_absorbs_absurd_choices(self, tmp_path):
        """Beyond-beam-regime leniency: out-of-range indices and a
        horizon far longer than the run are legal genomes, run to
        completion, and still replay."""
        genome = ChoicePrefixGenome(
            (999, 0, 7, 123) * 50, laziness=0.5
        )
        entry = entry_for(tmp_path, genome)
        ok, detail = replay_entry(entry)
        assert ok, detail

    def test_replay_detects_divergence(self, tmp_path):
        entry = entry_for(tmp_path, DelayVectorGenome((0.5, 0.9, 0.7)))
        entry["expect"]["messages"] += 1
        ok, detail = replay_entry(entry)
        assert not ok
        assert "messages" in detail


# ----------------------------------------------------------------------
# Entries, merging, checking
# ----------------------------------------------------------------------
class TestEntries:
    def test_entry_key_distinguishes_workloads(self):
        a = entry_key("flooding", {"kind": "check_world", "graph": "star"},
                      "time", 64)
        b = entry_key("flooding", {"kind": "check_world", "graph": "er"},
                      "time", 64)
        assert a != b
        assert a.startswith("flooding/check_world/time/n64/")

    def test_controlled_entry_requires_delays(self, tmp_path):
        base = check_world_spec("flooding", 8)
        genome = ChoicePrefixGenome((0, 1))
        from dataclasses import replace

        spec = replace(base, **genome.cell_overrides())
        with pytest.raises(ReproError):
            make_entry(
                spec=spec, genome=genome, objective="time", score=1.0,
                baseline=0.5, baseline_trials=4, optimizer="t",
                expect={"messages": 1, "bits": 1, "time": 1.0},
            )

    def test_merge_is_monotone(self, tmp_path):
        atlas = empty_atlas()
        entry = entry_for(tmp_path, DelayVectorGenome((0.9, 0.8)))
        assert merge_entry(atlas, entry) == "new"
        worse = dict(entry, score=entry["score"] - 0.5)
        assert merge_entry(atlas, worse) == "kept"
        key = entry_key(entry["algorithm"], entry["workload"],
                        entry["objective"], entry["n"])
        assert atlas["entries"][key]["score"] == entry["score"]
        better = dict(entry, score=entry["score"] + 0.5)
        assert merge_entry(atlas, better) == "improved"
        assert atlas["entries"][key]["score"] == better["score"]

    def test_save_load_round_trip(self, tmp_path):
        atlas = empty_atlas()
        merge_entry(
            atlas, entry_for(tmp_path, DelayVectorGenome((0.5, 0.6)))
        )
        path = save_atlas(atlas, tmp_path / "ATLAS.json")
        assert load_atlas(path) == atlas
        # A missing file is an empty atlas; a wrong file is an error.
        assert load_atlas(tmp_path / "absent.json") == empty_atlas()
        for junk in ('{"kind": "other"}', "null", "[1, 2]"):
            (tmp_path / "junk.json").write_text(junk)
            with pytest.raises(ReproError):
                load_atlas(tmp_path / "junk.json")

    @pytest.mark.parametrize("content", MALFORMED_ATLASES.values(),
                             ids=list(MALFORMED_ATLASES))
    def test_malformed_file_raises_repro_error_naming_it(
        self, tmp_path, content
    ):
        path = tmp_path / "ATLAS.json"
        path.write_bytes(content)
        with pytest.raises(ReproError, match=re.escape(str(path))):
            load_atlas(path)

    def test_check_atlas_passes_good_and_flags_bad(self, tmp_path):
        atlas = empty_atlas()
        entry = entry_for(tmp_path, DelayVectorGenome((0.7, 0.8)))
        merge_entry(atlas, entry)
        errors, stale = check_atlas(atlas)
        assert errors == []
        assert stale == []
        # Tampered genome: digest mismatch.
        key = next(iter(atlas["entries"]))
        bad = json.loads(json.dumps(atlas))  # deep copy
        bad["entries"][key]["genome"]["values"][0] = 0.123
        errors, _ = check_atlas(bad)
        assert any("digest" in e for e in errors)
        # Misplaced key: content mismatch.
        bad2 = json.loads(json.dumps(atlas))
        bad2["entries"]["wrong/key"] = bad2["entries"].pop(key)
        errors, _ = check_atlas(bad2)
        assert any("does not match" in e for e in errors)

    def test_stale_salts_reported_separately(self, tmp_path):
        atlas = empty_atlas()
        entry = entry_for(tmp_path, DelayVectorGenome((0.7, 0.9)))
        entry["salts"] = dict(entry["salts"], engine="0" * 16)
        merge_entry(atlas, entry)
        errors, stale = check_atlas(atlas)
        assert errors == []
        assert len(stale) == 1
        assert entry_is_stale(entry)

    def test_plain_replay_spec_strips_controller(self, tmp_path):
        entry = entry_for(
            tmp_path, ChoicePrefixGenome((0, 1, 2), laziness=1.0)
        )
        spec = plain_replay_spec(entry)
        assert spec.controller is None
        assert spec.delay["kind"] == "replay"
        assert spec.delay["delays"] == entry["delays"]


# ----------------------------------------------------------------------
# The end-to-end improvement pass
# ----------------------------------------------------------------------
class TestImproveAtlas:
    def test_full_pass_beats_baseline_and_replays(self, tmp_path):
        atlas = empty_atlas()
        summary = improve_atlas(
            atlas,
            base_spec=check_world_spec("flooding", 16, graph="star"),
            executor=serial_executor(tmp_path),
            optimizers=("cem", "sa"),
            generations=4,
            population=8,
            baseline_trials=8,
        )
        assert summary["merge"] == "new"
        assert summary["replay_ok"]
        assert summary["beat_baseline"]
        assert len(summary["runs"]) == 2
        errors, stale = check_atlas(atlas)
        assert errors == [] and stale == []
        # Idempotent re-run: monotone merge keeps the incumbent.
        again = improve_atlas(
            atlas,
            base_spec=check_world_spec("flooding", 16, graph="star"),
            executor=serial_executor(tmp_path),
            optimizers=("cem", "sa"),
            generations=4,
            population=8,
            baseline_trials=8,
        )
        assert again["merge"] in ("kept", "improved")

    def test_choice_prefix_space_pass(self, tmp_path):
        atlas = empty_atlas()
        summary = improve_atlas(
            atlas,
            base_spec=check_world_spec("flooding", 8, graph="star"),
            executor=serial_executor(tmp_path),
            optimizers=("pop",),
            generations=3,
            population=8,
            space=ChoicePrefixSpace(
                horizon=10, branch_cap=3, laziness=1.0
            ),
            baseline_trials=8,
        )
        assert summary["genome_kind"] == "choice_prefix"
        assert summary["replay_ok"]
        (entry,) = atlas["entries"].values()
        assert entry["delays"]
        errors, stale = check_atlas(atlas)
        assert errors == [] and stale == []

    def _pass(self, atlas, tmp_path):
        return improve_atlas(
            atlas,
            base_spec=check_world_spec("flooding", 16, graph="star"),
            executor=serial_executor(tmp_path),
            optimizers=("cem",),
            generations=2,
            population=4,
            baseline_trials=4,
        )

    def test_stale_incumbent_that_replays_is_restamped(self, tmp_path):
        atlas = empty_atlas()
        key = self._pass(atlas, tmp_path)["key"]
        incumbent = atlas["entries"][key]
        incumbent["salts"] = dict(incumbent["salts"], engine="0" * 16)
        # Out of the re-run's reach, so the merge keeps the incumbent
        # and only the refresh can change its salts.
        incumbent["score"] += 100.0
        before = json.loads(json.dumps(incumbent))
        assert self._pass(atlas, tmp_path)["merge"] == "kept"
        entry = atlas["entries"][key]
        assert not entry_is_stale(entry)
        assert check_atlas(atlas) == ([], [])
        assert entry["score"] == before["score"]
        assert entry["genome"] == before["genome"]

    def test_kept_merge_leaves_the_incumbent_unchanged(self, tmp_path):
        atlas = empty_atlas()
        key = self._pass(atlas, tmp_path)["key"]
        # Out of the re-run's reach, so the merge keeps the incumbent.
        atlas["entries"][key]["score"] = 99.0
        before = json.loads(json.dumps(atlas))
        assert self._pass(atlas, tmp_path)["merge"] == "kept"
        assert atlas == before
        assert "replay" not in atlas["entries"][key]

    def test_stale_incumbent_that_diverges_is_replaced(self, tmp_path):
        atlas = empty_atlas()
        key = self._pass(atlas, tmp_path)["key"]
        incumbent = atlas["entries"][key]
        incumbent["salts"] = dict(incumbent["salts"], engine="0" * 16)
        incumbent["score"] += 100.0
        incumbent["expect"]["messages"] += 1.0
        assert replay_entry(incumbent)[0] is False
        summary = self._pass(atlas, tmp_path)
        assert summary["merge"] == "new"
        entry = atlas["entries"][key]
        assert entry["score"] == summary["score"]
        assert replay_entry(entry) == (True, "")
        assert check_atlas(atlas) == ([], [])

    def test_requires_executor(self):
        with pytest.raises(ReproError):
            improve_atlas(
                empty_atlas(),
                base_spec=check_world_spec("flooding", 8),
            )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _atlas_argv(command, tmp_path):
    """``repro atlas COMMAND`` (a one-generation search for ``run``),
    without ``--atlas``."""
    return {
        "show": ["atlas", "show"],
        "check": ["atlas", "check"],
        "run": ["atlas", "run", "flooding", "--graph", "star",
                "--sizes", "12", "--generations", "1",
                "--population", "2", "--baseline-trials", "1",
                "--workers", "0",
                "--cache-dir", str(tmp_path / "run-cache"),
                "--topology-dir", str(tmp_path / "run-topo")],
    }[command]


class TestAtlasCli:
    def _run(self, argv):
        from repro.__main__ import main

        return main(argv)

    @pytest.mark.parametrize("command", ["show", "run", "check"])
    @pytest.mark.parametrize("content", MALFORMED_ATLASES.values(),
                             ids=list(MALFORMED_ATLASES))
    def test_malformed_atlas_is_reported_not_raised(
        self, tmp_path, capsys, command, content
    ):
        atlas_path = tmp_path / "ATLAS.json"
        atlas_path.write_bytes(content)
        argv = _atlas_argv(command, tmp_path)
        assert self._run([*argv, "--atlas", str(atlas_path)]) == 1
        assert f"cannot load atlas {atlas_path}" in capsys.readouterr().err
        assert atlas_path.read_bytes() == content
        assert not (tmp_path / "run-cache").exists()  # no search ran

    def test_run_show_check_cycle(self, tmp_path, capsys, monkeypatch):
        # From inside tmp_path, so a default-located store would show.
        monkeypatch.chdir(tmp_path)
        atlas_path = tmp_path / "ATLAS.json"
        common = ["--atlas", str(atlas_path)]
        rc = self._run(
            ["atlas", "run", "flooding", "--graph", "star",
             "--sizes", "12", "--generations", "3",
             "--population", "6", "--baseline-trials", "4",
             "--workers", "0",
             "--cache-dir", str(tmp_path / "cache"),
             "--topology-dir", str(tmp_path / "topo"),
             "--require-beat-baseline", *common]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "merge" in out and "new" in out
        assert atlas_path.exists()
        # The atlas is the only file a run writes outside its caches.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ATLAS.json", "cache", "topo",
        ]

        assert self._run(["atlas", "show", "--atlas",
                          str(atlas_path)]) == 0
        out = capsys.readouterr().out
        assert "flooding/check_world/time/n12" in out
        assert "live" in out

        assert self._run(
            ["atlas", "check", "--atlas", str(atlas_path),
             "--replay", "--strict"]
        ) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "replayed bit-identically" in out

    def test_check_flags_stale_under_strict(self, tmp_path, capsys):
        atlas = empty_atlas()
        entry = entry_for(tmp_path, DelayVectorGenome((0.8, 0.9)))
        entry["salts"] = dict(entry["salts"], engine="0" * 16)
        merge_entry(atlas, entry)
        path = save_atlas(atlas, tmp_path / "ATLAS.json")
        assert self._run(["atlas", "check", "--atlas", str(path)]) == 0
        capsys.readouterr()
        assert self._run(
            ["atlas", "check", "--atlas", str(path), "--strict"]
        ) == 1

    def test_check_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "ATLAS.json"
        bad.write_text(json.dumps({"kind": ATLAS_KIND, "version": 1,
                                   "entries": {"x": {}}}))
        assert self._run(["atlas", "check", "--atlas",
                          str(bad)]) == 1

    @pytest.mark.parametrize("field", ["optimizer", "score"])
    @pytest.mark.parametrize("command", ["show", "run"])
    def test_malformed_entry_is_reported_not_raised(
        self, tmp_path, capsys, command, field
    ):
        atlas = empty_atlas()
        merge_entry(atlas, entry_for(
            tmp_path, DelayVectorGenome((0.6, 0.7)), n=12,
        ))
        (entry,) = atlas["entries"].values()
        del entry[field]
        path = save_atlas(atlas, tmp_path / "ATLAS.json")
        content = path.read_bytes()
        argv = _atlas_argv(command, tmp_path)
        assert self._run([*argv, "--atlas", str(path)]) == 1
        assert f"missing fields ['{field}']" in capsys.readouterr().err
        assert path.read_bytes() == content
        assert not (tmp_path / "run-cache").exists()  # no search ran

    def test_cache_walks_three_stores(self, tmp_path, capsys):
        dirs = [
            "--cache-dir", str(tmp_path / "cache"),
            "--topology-dir", str(tmp_path / "topo"),
            "--replay-dir", str(tmp_path / "replays"),
        ]
        assert self._run(["cache", "info", *dirs]) == 0
        out = capsys.readouterr().out
        rows = [line.split()[0] for line in out.splitlines()
                if str(tmp_path) in line]
        assert rows == ["cells", "topologies", "replays"]
        assert self._run(["cache", "purge", *dirs]) == 0
        assert "atlas" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            self._run(["cache", "purge", "atlas", *dirs])
