"""CI smoke test for the parallel compression paths.

Exercises the CLI end to end the way a user on a multi-core box would:

1. ``compress --jobs 2`` (two worker processes) must produce an
   artifact byte-identical to the serial run (modulo the recorded build
   time);
2. ``compress --jobs 2 --shards 2`` (shard-and-merge in two worker
   processes) must round-trip through ``load_artifact`` and agree
   exactly with the serial sharded run;
3. ``sweep --jobs 2`` must report the same points as the serial sweep.

Exits non-zero on any failure; runtime is a few seconds so it fits the
fast CI budget.  Run with::

    PYTHONPATH=src python scripts/parallel_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.core.compress import load_artifact
from repro.workloads import generate_pocketdata, write_log


def _payload_sans_clock(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("build_seconds")
    return payload


def run() -> int:
    workload = generate_pocketdata(total=5_000, n_distinct=150, seed=1)
    with tempfile.TemporaryDirectory() as root:
        base = Path(root)
        log_file = base / "log.sql"
        write_log(workload, log_file)

        # 1. flat compression: serial vs 2 process workers
        flat = {}
        for name, extra in {
            "serial": [],
            "jobs2": ["--jobs", "2"],
        }.items():
            out = base / f"flat-{name}.json"
            rc = main(
                ["compress", str(log_file), "-o", str(out), "-k", "4"] + extra
            )
            assert rc == 0, f"compress {name} exited {rc}"
            flat[name] = _payload_sans_clock(out)
        assert flat["serial"] == flat["jobs2"], (
            "parallel flat artifact diverged from serial"
        )

        # 2. shard-and-merge round trip: serial vs 2 process workers
        sharded = {}
        for name, extra in {
            "serial": [],
            "jobs2": ["--jobs", "2"],
        }.items():
            out = base / f"sharded-{name}.json"
            rc = main(
                [
                    "compress", str(log_file), "-o", str(out),
                    "-k", "2", "--shards", "2",
                ]
                + extra
            )
            assert rc == 0, f"sharded compress {name} exited {rc}"
            sharded[name] = _payload_sans_clock(out)
        assert sharded["serial"] == sharded["jobs2"], (
            "parallel sharded artifact diverged from serial"
        )
        artifact = load_artifact(base / "sharded-jobs2.json")
        assert artifact.mixture.n_components <= 4, artifact.mixture
        assert artifact.n_clusters == artifact.mixture.n_components
        assert artifact.labels.shape[0] > 0, "labels lost in round trip"
        assert artifact.mixture.total == sum(
            c for _, c in workload.entries
        ), "sharded mixture lost log entries"

        # 3. parallel sweep agrees with serial
        sweeps = {}
        for name, extra in {
            "serial": [],
            "jobs2": ["--jobs", "2"],
        }.items():
            out = base / f"sweep-{name}.json"
            rc = main(
                ["sweep", str(log_file), "--ks", "1,2,4", "-o", str(out)]
                + extra
            )
            assert rc == 0, f"sweep {name} exited {rc}"
            points = json.loads(out.read_text(encoding="utf-8"))
            sweeps[name] = [
                (p["n_clusters"], p["error"], p["verbosity"]) for p in points
            ]
        assert sweeps["serial"] == sweeps["jobs2"], (
            "parallel sweep points diverged from serial"
        )

    print(
        "parallel smoke: PASS (flat/sharded/sweep artifacts bit-identical "
        "across 2-process and serial runs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(run())
