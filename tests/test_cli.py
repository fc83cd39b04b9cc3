"""Tests for the logr command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads import generate_pocketdata, write_log


@pytest.fixture(scope="module")
def log_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "log.sql"
    workload = generate_pocketdata(total=2_000, n_distinct=60, seed=4)
    write_log(workload, path)
    return path


class TestCompress:
    def test_compress_writes_artifact(self, log_file, tmp_path, capsys):
        out = tmp_path / "summary.json"
        rc = main(["compress", str(log_file), "-o", str(out), "-k", "4"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == "logr-compressed-v2"
        assert payload["n_clusters"] == 4
        assert len(payload["mixture"]["components"]) <= 4
        assert payload["labels"]  # per-row assignments survive serialization
        printed = capsys.readouterr().out
        assert "Error=" in printed

    def test_compress_with_spectral(self, log_file, tmp_path):
        out = tmp_path / "summary.json"
        rc = main(
            [
                "compress", str(log_file), "-o", str(out),
                "-k", "2", "--method", "spectral", "--metric", "hamming",
            ]
        )
        assert rc == 0

    def test_compress_is_repeatable_for_a_seed(self, log_file, tmp_path):
        # Artifacts agree on everything except the wall-clock provenance.
        outputs = []
        for run in range(2):
            out = tmp_path / f"summary-{run}.json"
            rc = main(
                ["compress", str(log_file), "-o", str(out), "-k", "3", "--seed", "1"]
            )
            assert rc == 0
            payload = json.loads(out.read_text())
            assert payload.pop("backend") == "packed"
            payload.pop("build_seconds")
            outputs.append(payload)
        assert outputs[0] == outputs[1]


class TestEmptyLog:
    """A log with nothing to encode exits with a one-line message."""

    @pytest.mark.parametrize(
        "content",
        ["", "THIS IS NOT SQL @@@\nEXEC sp_x 1\n"],
        ids=["empty", "unparseable"],
    )
    @pytest.mark.parametrize("command", ["compress", "sweep", "stats"])
    def test_exits_naming_the_file(self, tmp_path, command, content):
        path = tmp_path / "empty.sql"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "out.json"
        extra = ["-o", str(out)] if command == "compress" else []
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), *extra])
        assert exc.value.code == (
            f"logr {command}: {path}: no usable statements in the input log"
        )
        assert not out.exists()

    def test_process_exits_non_zero_without_traceback(self, tmp_path):
        path = tmp_path / "empty.sql"
        path.write_text("", encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "stats", str(path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            f"logr stats: {path}: no usable statements in the input log"
        ]


class TestStrategyChecks:
    """An unsupported --method/--metric pair is refused before the log is read."""

    @pytest.mark.parametrize("command", ["compress", "sweep"])
    def test_kmeans_with_another_metric_exits_with_one_line(
        self, tmp_path, command
    ):
        missing = tmp_path / "never-read.sql"  # reading it would raise
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([command, str(missing), "-o", str(out), "--metric", "hamming"])
        assert exc.value.code == (
            f"logr {command}: kmeans supports only the euclidean metric"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compress", "sweep"])
    def test_unknown_metric_is_an_argparse_error(
        self, tmp_path, command, capsys
    ):
        missing = tmp_path / "never-read.sql"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command, str(missing), "-o", str(tmp_path / "out.json"),
                    "--method", "spectral", "--metric", "bogus",
                ]
            )
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_process_exits_one_without_traceback(self, tmp_path):
        missing = tmp_path / "never-read.sql"
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "compress", str(missing),
                "-o", str(tmp_path / "out.json"), "--metric", "hamming",
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "logr compress: kmeans supports only the euclidean metric"
        ]


class TestStats:
    def test_stats_output(self, log_file, capsys):
        rc = main(["stats", str(log_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# Distinct queries" in out
        assert "True entropy" in out


class TestEstimateAndVisualize:
    @pytest.fixture()
    def artifact(self, log_file, tmp_path):
        out = tmp_path / "summary.json"
        main(["compress", str(log_file), "-o", str(out), "-k", "3"])
        return out

    def test_estimate(self, artifact, capsys):
        rc = main(
            ["estimate", str(artifact), "--feature", "messages:FROM"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimated count" in out

    def test_estimate_bad_spec(self, artifact):
        with pytest.raises(SystemExit):
            main(["estimate", str(artifact), "--feature", "no-colon"])

    def test_visualize(self, artifact, capsys):
        rc = main(["visualize", str(artifact), "--min-marginal", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cluster" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_synthesize(self, artifact, capsys):
        rc = main(["synthesize", str(artifact), "-n", "5"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 5
        from repro.sql import parse

        for line in lines:
            parse(line)

    def test_drift_self_is_zero(self, artifact, capsys):
        rc = main(["drift", str(artifact), str(artifact)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workload divergence: 0.0000 bits" in out


class TestServiceCommands:
    @pytest.fixture()
    def store_with_profile(self, log_file, tmp_path):
        store = tmp_path / "store"
        rc = main(
            [
                "compress", str(log_file), "-o", str(tmp_path / "s.json"),
                "-k", "3", "--store", str(store), "--profile", "pocket",
            ]
        )
        assert rc == 0
        return store

    def test_compress_store_requires_profile(self, log_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "compress", str(log_file), "-o", str(tmp_path / "x.json"),
                    "--store", str(tmp_path / "store"),
                ]
            )

    def test_keep_constants_profile_is_refused(self, log_file, tmp_path):
        # Every consumer of a stored profile (/score, /ingest, /drift,
        # panes, `logr ingest`, `logr score`) encodes statements with
        # constants removed, so a constants-kept codebook would flag
        # every one of the profile's own statements.
        out = tmp_path / "s.json"
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "compress", str(log_file), "-o", str(out),
                    "--keep-constants", "--store", str(store),
                    "--profile", "pocket",
                ]
            )
        assert exc.value.code == (
            "--keep-constants cannot be used with --store: every profile "
            "consumer encodes statements with constants removed"
        )
        assert not out.exists()
        assert not store.exists()

    def test_keep_constants_without_store_still_compresses(
        self, log_file, tmp_path
    ):
        out = tmp_path / "s.json"
        rc = main(
            ["compress", str(log_file), "-o", str(out), "--keep-constants"]
        )
        assert rc == 0
        assert json.loads(out.read_text())["format"] == "logr-compressed-v2"

    def test_score_against_store(self, store_with_profile, log_file, capsys):
        rc = main(
            [
                "score", str(log_file),
                "--store", str(store_with_profile), "--profile", "pocket",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scored" in out and "threshold" in out

    def test_score_summary_needs_threshold(self, store_with_profile, log_file,
                                           tmp_path, capsys):
        summary = tmp_path / "s2.json"
        main(["compress", str(log_file), "-o", str(summary), "-k", "2"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["score", str(log_file), "--summary", str(summary)])
        rc = main(
            ["score", str(log_file), "--summary", str(summary),
             "--threshold", "-100"]
        )
        assert rc == 0

    @pytest.mark.parametrize("quantile", ["1.5", "nan", "-0.1", "inf"])
    def test_score_refuses_quantile_outside_unit_interval(
        self, store_with_profile, log_file, quantile
    ):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "score", str(log_file), "--store", str(store_with_profile),
                    "--profile", "pocket", "--quantile", quantile,
                ]
            )
        assert exc.value.code == (
            f"logr score: threshold quantile must lie in [0, 1], got {float(quantile)}"
        )

    def test_score_bad_quantile_exits_one_without_traceback(
        self, store_with_profile, log_file
    ):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "score", str(log_file),
                "--store", str(store_with_profile), "--profile", "pocket",
                "--quantile", "1.5",
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "logr score: threshold quantile must lie in [0, 1], got 1.5"
        ]
        assert done.stdout == ""

    def test_score_requires_exactly_one_source(self, log_file):
        with pytest.raises(SystemExit):
            main(["score", str(log_file)])

    def test_ingest_bumps_version(self, store_with_profile, log_file, capsys):
        rc = main(["ingest", str(store_with_profile), "pocket", str(log_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "v2" in out
        from repro.service import SummaryStore

        store = SummaryStore(store_with_profile)
        assert [v.version for v in store.versions("pocket")] == [1, 2]

    def test_serve_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "/tmp/store", "--port", "0", "--staleness-threshold", "1.5"]
        )
        assert args.command == "serve"
        assert args.staleness_threshold == 1.5


class TestParallelCompress:
    def test_jobs_match_serial_artifact(self, log_file, tmp_path):
        # --jobs only changes the schedule; the artifact must be
        # byte-identical to serial apart from the recorded build time.
        payloads = {}
        for name, extra in {
            "serial": [],
            "process": ["--jobs", "2"],
        }.items():
            out = tmp_path / f"{name}.json"
            rc = main(
                ["compress", str(log_file), "-o", str(out), "-k", "4"] + extra
            )
            assert rc == 0
            payload = json.loads(out.read_text())
            payload.pop("build_seconds")
            payloads[name] = payload
        assert payloads["serial"] == payloads["process"]

    def test_sharded_compress_round_trips(self, log_file, tmp_path, capsys):
        out = tmp_path / "sharded.json"
        rc = main(
            [
                "compress", str(log_file), "-o", str(out), "-k", "2",
                "--shards", "2", "--jobs", "2",
            ]
        )
        assert rc == 0
        from repro.core.compress import load_artifact

        artifact = load_artifact(out)
        assert artifact.n_clusters == artifact.mixture.n_components
        assert artifact.mixture.n_components <= 4  # 2 shards x K=2
        assert "Error=" in capsys.readouterr().out
        # jobs=1 same sharding must agree exactly
        serial_out = tmp_path / "sharded-serial.json"
        main(
            [
                "compress", str(log_file), "-o", str(serial_out), "-k", "2",
                "--shards", "2",
            ]
        )
        ours = json.loads(out.read_text())
        theirs = json.loads(serial_out.read_text())
        ours.pop("build_seconds"); theirs.pop("build_seconds")
        assert ours == theirs

    def test_single_threaded_cli_keeps_platform_start_method(
        self, log_file, tmp_path
    ):
        # Only a pool made while other threads run pays for spawn; the
        # CLI runs one thread, so `--jobs 2` keeps the platform default.
        # A fresh interpreter makes sure no thread left by another test
        # is alive.
        script = "\n".join(
            [
                "import sys",
                "from concurrent.futures import ProcessPoolExecutor",
                "from repro.core import executor",
                "contexts = []",
                "class RecordingPool(ProcessPoolExecutor):",
                "    def __init__(self, *args, mp_context=None, **kwargs):",
                "        contexts.append(mp_context)",
                "        super().__init__(*args, mp_context=mp_context, **kwargs)",
                "executor.ProcessPoolExecutor = RecordingPool",
                "from repro.cli import main",
                "main(sys.argv[1:])",
                "print(contexts)",
            ]
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [
                sys.executable, "-c", script, "compress", str(log_file),
                "-o", str(tmp_path / "out.json"), "-k", "4", "--jobs", "2",
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[None]"

    def test_consolidate_requires_shards(self, log_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "compress", str(log_file), "-o", str(tmp_path / "x.json"),
                    "--consolidate-to", "2",
                ]
            )


class TestSweepCommand:
    def test_sweep_prints_points(self, log_file, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep", str(log_file), "--ks", "1,2,4", "-o", str(out),
                "--jobs", "2",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Error(bits)" in printed
        points = json.loads(out.read_text())
        assert [p["n_clusters"] for p in points] == [1, 2, 4]
        assert all(p["error"] >= 0 for p in points)
        # verbosity weakly grows with K
        assert points[-1]["verbosity"] >= points[0]["verbosity"]

    def test_sweep_rejects_bad_ks(self, log_file):
        with pytest.raises(SystemExit):
            main(["sweep", str(log_file), "--ks", "two,4"])
        with pytest.raises(SystemExit):
            main(["sweep", str(log_file), "--ks", "0,4"])

    def test_rejects_invalid_parallel_values(self, log_file, tmp_path):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit):
            main(
                [
                    "compress", str(log_file), "-o", str(out),
                    "--shards", "2", "--consolidate-to", "0",
                ]
            )
        with pytest.raises(SystemExit):
            main(["compress", str(log_file), "-o", str(out), "--jobs", "0"])


class TestWindowedCommands:
    @pytest.fixture()
    def paned_store(self, log_file, tmp_path):
        """A store with a profile and three sealed 150-statement panes."""
        store = tmp_path / "store"
        main(
            [
                "compress", str(log_file), "-o", str(tmp_path / "s.json"),
                "-k", "2", "--store", str(store), "--profile", "pocket",
            ]
        )
        rc = main(
            [
                "ingest", str(store), "pocket", str(log_file),
                "--pane-statements", "150",
            ]
        )
        assert rc == 0
        return store

    def test_ingest_routes_batches_into_panes(self, capsys, paned_store, log_file):
        rc = main(
            [
                "ingest", str(paned_store), "pocket", str(log_file),
                "--pane-statements", "150",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "pane   14:" in printed  # numbering continues past pane 13
        assert "drift=" in printed

    def test_timeline_prints_per_pane_series(self, paned_store, capsys):
        rc = main(["timeline", str(paned_store), "pocket"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Error(bits)" in printed
        assert "drift(bits)" in printed
        # 2000 statements / 150 per pane -> 13 full panes + final roll.
        assert "    13  " in printed

    def test_timeline_last(self, paned_store, capsys):
        rc = main(["timeline", str(paned_store), "pocket", "--last", "2"])
        assert rc == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.strip() and not line.lstrip().startswith("pane")
        ]
        assert len(lines) == 2

    def test_timeline_without_panes_exits(self, log_file, tmp_path):
        store = tmp_path / "empty-store"
        main(
            [
                "compress", str(log_file), "-o", str(tmp_path / "s.json"),
                "-k", "2", "--store", str(store), "--profile", "pocket",
            ]
        )
        with pytest.raises(SystemExit):
            main(["timeline", str(store), "pocket"])

    def test_window_composes_and_scores(self, paned_store, log_file, capsys):
        rc = main(
            [
                "window", str(paned_store), "pocket", "--last", "3",
                "--queries", str(log_file),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "window over 'pocket'" in printed
        assert "Error=" in printed

    def test_window_decayed_and_consolidated(self, paned_store, capsys):
        rc = main(
            [
                "window", str(paned_store), "pocket",
                "--half-life", "2.0", "--consolidate-to", "2",
            ]
        )
        assert rc == 0
        assert "2 components" in capsys.readouterr().out

    def test_window_explicit_panes(self, paned_store, capsys):
        rc = main(["window", str(paned_store), "pocket", "--panes", "0,2"])
        assert rc == 0
        assert "300" in capsys.readouterr().out

    def test_window_argument_validation(self, paned_store):
        with pytest.raises(SystemExit):
            main(
                [
                    "window", str(paned_store), "pocket",
                    "--last", "1", "--panes", "0",
                ]
            )
        with pytest.raises(SystemExit):
            main(["window", str(paned_store), "pocket", "--panes", "a,b"])
