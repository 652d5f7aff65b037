"""Smoke test of the end-to-end benchmark (not collected by tier-1:
``testpaths = ["tests"]``).  Run it with::

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py"), "--scale", "0.05",
       "--repeats", "1"]


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_listed_metric_is_emitted(tmp_path):
    """All four workloads, traced, at 1/20 scale: every metric named in
    BENCHMARK.json comes out finite and with its unit."""
    registry = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    done = subprocess.run(RUN + ["--trace", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    workloads = json.loads(out.read_text())["workloads"]
    assert set(workloads) == {w["name"] for w in registry["workloads"]}
    for name, doc in workloads.items():
        assert doc["failed"] == 0, (name, doc["failures"])
        for group in ("end_to_end", "per_layer"):
            for metric in registry[group]:
                got = doc[group][metric["name"]]
                assert math.isfinite(got["value"]), (name, metric["name"])
                assert got["unit"] == metric["unit"], (name, metric["name"])
        table = doc["phase_table"]
        assert math.isclose(sum(row["wall_s"] for row in table[:-1]),
                            table[-1]["wall_s"], rel_tol=0.02)


def test_a_failed_check_fails_the_run():
    """Verifying against a deliberately wrong oracle digest must count
    the fits as failed and exit non-zero."""
    done = subprocess.run(
        RUN + ["--workload", "serial_deep", "--break-oracle"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    result = _last_line(done.stdout)
    assert result["correct"] is False and result["failed"] >= 1
