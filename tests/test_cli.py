"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "flooding"])
        assert args.n == 200
        assert args.awake == 1
        assert not args.wave

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_sweep_sizes(self):
        args = build_parser().parse_args(
            ["sweep", "flooding", "--sizes", "10", "20"]
        )
        assert args.sizes == [10, 20]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dfs-rank" in out
        assert "KT1/LOCAL" in out

    def test_run(self, capsys):
        code = main(
            ["run", "flooding", "--n", "30", "--awake", "2", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flooding" in out
        assert "True" in out  # all_awake

    def test_run_with_wave(self, capsys):
        code = main(
            ["run", "fip06-tree-advice", "--n", "25", "--seed", "2", "--wave"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adversary:" in out

    def test_run_sync_algorithm(self, capsys):
        code = main(["run", "fast-wakeup", "--n", "30", "--seed", "3"])
        assert code == 0
        assert "fast-wakeup" in capsys.readouterr().out

    def test_table1(self, capsys):
        code = main(["table1", "--n", "50", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Thm 3" in out
        assert "rho_awk" in out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "flooding", "--sizes", "20", "40", "--trials", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "messages ~" in out
        assert "n^" in out

    def test_lowerbounds(self, capsys):
        code = main(["lowerbounds", "--n", "24", "--betas", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Theorem 1 frontier" in out
        assert "Theorem 2 matching upper bound" in out


class TestCheckCommands:
    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "flooding"])
        assert args.n == 4
        assert args.graph == "cycle"
        assert args.mutation is None
        assert args.replay_dir.endswith(".replays")

    def test_check_clean_workload_exits_zero(self, capsys):
        code = main(["check", "flooding", "--n", "4", "--graph", "cycle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Schedule-space exploration" in out
        assert "complete" in out

    def test_check_mutation_finds_and_shrinks(self, capsys, tmp_path):
        code = main(
            [
                "check", "echo-flooding", "--n", "4", "--graph", "path",
                "--mutation", "skip-fifo",
                "--replay-dir", str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "violation: fifo-per-channel" in out
        assert "shrunk witness" in out
        artifacts = list(tmp_path.glob("check-*.json"))
        assert len(artifacts) == 1

    def test_worstcase_classg(self, capsys, tmp_path):
        code = main(
            [
                "worstcase", "flooding", "--workload", "class-g",
                "--n", "6", "--trials", "8",
                "--out", str(tmp_path / "wc.json"),
                "--replay-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Worst-case search" in out
        assert "bit-identically" in out
        assert (tmp_path / "wc.json").exists()

    def test_cache_info_reports_replays(self, capsys, tmp_path):
        (tmp_path / "a.json").write_text("{}")
        code = main(["cache", "info", "--replay-dir", str(tmp_path)])
        assert code == 0
        assert "replays" in capsys.readouterr().out

    def test_cache_purge_covers_replays(self, capsys, tmp_path):
        (tmp_path / "a.json").write_text("{}")
        (tmp_path / "b.json").write_text("{}")
        code = main(
            [
                "cache", "purge", "replays",
                "--cache-dir", str(tmp_path / "none"),
                "--topology-dir", str(tmp_path / "none2"),
                "--replay-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "2 replay artifact(s)" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))

    @staticmethod
    def _cache_dirs(tmp_path):
        return [
            "--cache-dir", str(tmp_path / "cells"),
            "--topology-dir", str(tmp_path / "topologies"),
            "--replay-dir", str(tmp_path / "replay"),
            "--atlas-dir", str(tmp_path / "atlas"),
        ]

    def test_full_purge_removes_orphaned_temp_files(self, tmp_path):
        # A writer killed between its temp write and the rename leaves
        # <key>.tmp.<pid> behind in either store.  Only a full purge may
        # remove it: under --stale a live writer may still own it.
        planted = [
            tmp_path / store / "ab" / "ab12.tmp.4242"
            for store in ("cells", "topologies")
        ]
        for path in planted:
            path.parent.mkdir(parents=True)
            path.write_bytes(b"half a write")
        dirs = self._cache_dirs(tmp_path)
        assert main(["cache", "purge", "all", "--stale", *dirs]) == 0
        assert all(path.exists() for path in planted)
        assert main(["cache", "purge", "all", *dirs]) == 0
        assert not any(path.exists() for path in planted)

    @pytest.mark.parametrize("kind, row", [("replay", "replays"),
                                           ("atlas", "atlas")])
    @pytest.mark.parametrize(
        "content", [b"null", b"[1, 2]", b"\xff\xfe"],
        ids=["null", "list", "not-utf8"],
    )
    def test_malformed_artifact_is_stale(
        self, capsys, tmp_path, kind, row, content
    ):
        # A replay or atlas file that is not a JSON object used to
        # escape `cache info` and `cache purge --stale` as a traceback.
        (tmp_path / kind).mkdir()
        bad = tmp_path / kind / "bad.json"
        bad.write_bytes(content)
        dirs = self._cache_dirs(tmp_path)
        assert main(["cache", "info", *dirs]) == 0
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] == [row]
        ]
        entries, live, stale = line.split()[2:5]
        assert (entries, live, stale) == ("1", "0", "1")
        assert main(["cache", "purge", "all", "--stale", *dirs]) == 0
        out = capsys.readouterr().out
        assert f"1 {'atlas ' if kind == 'atlas' else ''}replay artifact" in out
        assert not bad.exists()


class TestMetricsCommands:
    def _sweep_with_metrics(self, tmp_path):
        snap_path = tmp_path / "metrics.json"
        code = main(
            [
                "sweep", "flooding", "--sizes", "16", "--trials", "1",
                "--workers", "0", "--progress", "off",
                "--cache-dir", str(tmp_path / "cache"),
                "--topology-dir", str(tmp_path / "topo"),
                "--metrics", str(snap_path),
            ]
        )
        assert code == 0
        return snap_path

    def test_metrics_flag_writes_snapshot(self, capsys, tmp_path):
        import json

        snap_path = self._sweep_with_metrics(tmp_path)
        capsys.readouterr()
        snap = json.loads(snap_path.read_text())
        assert snap["counters"][
            'repro_engine_runs_total{engine="async"}'
        ] == 1
        # and the global registry was restored to the null default
        from repro.obs.metrics import NULL_REGISTRY, get_registry

        assert get_registry() is NULL_REGISTRY

    def test_metrics_dump_formats(self, capsys, tmp_path):
        snap_path = self._sweep_with_metrics(tmp_path)
        capsys.readouterr()
        assert main(["metrics", "dump", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert '"counters"' in out
        assert main(
            ["metrics", "dump", str(snap_path), "--format", "prometheus"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_runs_total counter" in out

    def test_metrics_dump_missing_file_errors(self, capsys, tmp_path):
        assert main(["metrics", "dump", str(tmp_path / "no.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_top_renders_snapshot(self, capsys, tmp_path):
        snap_path = self._sweep_with_metrics(tmp_path)
        capsys.readouterr()
        assert main(["top", str(snap_path)]) == 0
        out = capsys.readouterr().out
        assert "executor   cells 1" in out
        assert "engines    runs 1" in out

    def test_progress_top_is_accepted(self, tmp_path):
        code = main(
            [
                "sweep", "flooding", "--sizes", "16", "--trials", "1",
                "--workers", "0", "--progress", "top", "--no-cache",
                "--topology-dir", str(tmp_path / "topo"),
                "--metrics", str(tmp_path / "m.json"),
            ]
        )
        assert code == 0
