"""End-to-end benchmark: train → deploy → score, four workloads.

::

    python benchmarks/e2e/run.py --seed 1 --trace --out run.json
    python benchmarks/e2e/run.py --workload stream_p2 --seed 7 --seconds 15 --trace 0
    python benchmarks/e2e/run.py compare a.json b.json

Without ``--workload`` every workload runs, each in its own fresh
subprocess (so ``ru_maxrss`` is per workload).  ``--trace`` adds the
traced pass (phase ledger + layer probes, ``out/<workload>.spans.jsonl``).
The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) listed in the
root ``BENCHMARK.json``, which is the one registry of metric names,
units, directions and bounds.  Exit code is non-zero when any check
failed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
PR_SET_CHILD_SUBREAPER = 36


def load_registry() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# hermetic environment, provenance, leak check
# ----------------------------------------------------------------------


def scrub_environment() -> list[str]:
    """Unset every ``REPRO_*`` variable: any of them would silently
    change backend, split mode, shm threshold, tracing or checkpointing."""
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in dropped:
        del os.environ[key]
    return dropped


def provenance(seed: int, dropped: list[str]) -> dict:
    import numpy

    from repro.core import InductionConfig
    from repro.runtime import resolve_backend, resolve_shm_threshold

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "dropped_env": dropped,
        "default_backend": resolve_backend(None),
        "default_split_mode": InductionConfig().resolved_split_mode(),
        "shm_threshold": resolve_shm_threshold(),
    }


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith(f"rp{os.getpid()}j")}
    except OSError:
        return set()


def _child_pids() -> list[int]:
    """Children of this process, zombies included."""
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids += map(int, task.read_text().split())
        except OSError:
            pass
    return pids


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants, so one whose
    parent died (a rank of a killed tcp host) is still ours to stop."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children() -> list[int]:
    """Stop every process this one started and wait until each has ended.

    multiprocessing's resource tracker (the process engine starts it)
    ends once its pipe is closed; anything else still here is killed.
    Returns the pids that had to be killed."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    multiprocessing.active_children()   # reaps the ones that have ended
    killed = []
    while pids := _child_pids():
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            killed.append(pid)
    return killed


def leak_check(checks, workdir: str) -> None:
    """After a workload: no child process, no shm segment, no temp dir."""
    killed = stop_children()
    checks.record(not killed, f"child processes still alive: {killed}")
    segments = _shm_segments()
    checks.record(not segments, f"shm segments left behind: {segments}")
    checks.record(not os.path.exists(workdir),
                  f"temp dir {workdir} was not removed")


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    for name, m in metrics.items():
        print(f"  {name:<44s} {m['value']:>16.6g} {m['unit']}")


def _print_phase_table(table: list) -> None:
    total = table[-1]["wall_s"]
    print("\nphase ledger (rows above 'traced fit' sum to it)")
    print(f"  {'layer':<24s} {'wall_s':>9s} {'share':>7s} {'coll_s':>9s} "
          f"{'self_s':>9s} {'bytes':>14s}")
    for row in table:
        print(f"  {row['layer']:<24s} {row['wall_s']:9.4f} "
              f"{row['wall_s'] / total:7.1%} {row['coll_s']:9.4f} "
              f"{row['wall_s'] - row['coll_s']:9.4f} {row['bytes']:14d}")


def run_workload(args, registry: dict) -> int:
    dropped = scrub_environment()
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found — run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from layers import traced_pass
    from pipeline import run_pipeline
    from spans import SpanLog
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    if w.n_ranks > (os.cpu_count() or 1):
        print(f"error: {w.name} needs {w.n_ranks} cores, this host has "
              f"{os.cpu_count()} — refusing to emit oversubscribed numbers",
              file=sys.stderr)
        return 2

    run_id = uuid.uuid4().hex[:12]
    workdir = str(OUT / f"tmp-{run_id}")
    os.makedirs(workdir)
    spans = SpanLog(run_id)
    per_layer, table = None, None
    try:
        res = run_pipeline(w, args.seed, args.seconds, args.scale,
                           args.repeats, spans, workdir, str(SRC),
                           break_oracle=args.break_oracle)
        if args.trace:
            per_layer, table = traced_pass(res, spans, workdir, str(SRC))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leak_check(res.checks, workdir)
    checks = res.checks

    registered = {m["name"]: _metric(res.end_to_end[m["name"]], m["unit"])
                  for m in registry["end_to_end"]}
    # printed and compared, but not registered (a registered metric may
    # never be 0; the driver reads failed / attempted instead)
    end_to_end = {**registered, "failed_share": _metric(
        checks.failed / checks.attempted, "fraction")}
    doc = {
        "provenance": {
            **provenance(args.seed, dropped), "workload": w.name,
            "backend": w.backend, "n_ranks": w.n_ranks,
            "split_mode": res.config.resolved_split_mode(),
            "scale": args.scale, "run_id": run_id,
        },
        "end_to_end": end_to_end,
        "samples": res.samples,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
    }
    print(f"== {w.name}  seed={args.seed}  "
          f"fits={len(res.samples['fit_wall_s'])}  run_id={run_id}")
    _print_metrics("end-to-end", end_to_end)
    if per_layer is not None:
        doc["per_layer"] = {
            m["name"]: _metric(per_layer[m["name"]], m["unit"])
            for m in registry["per_layer"]}
        doc["phase_table"] = table
        _print_phase_table(table)
        _print_metrics("per-layer", doc["per_layer"])
        spans.write(str(OUT / f"{w.name}.spans.jsonl"))
    for failure in checks.failures:
        print(f"FAILED: {failure}")

    emitted = doc["per_layer"] if args.trace else registered
    correct = checks.failed == 0 and all(
        math.isfinite(m["value"]) for m in emitted.values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workloads": {w.name: doc}}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": emitted}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# all workloads, each in a fresh subprocess
# ----------------------------------------------------------------------


def run_all(args, registry: dict) -> int:
    os.makedirs(OUT, exist_ok=True)
    merged, status = {"workloads": {}}, 0
    for entry in registry["workloads"]:
        part = OUT / f"part-{os.getpid()}-{entry['name']}.json"
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", entry["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--scale", str(args.scale),
                   "--trace", str(args.trace), "--out", str(part)]
        if args.repeats is not None:
            command += ["--repeats", str(args.repeats)]
        if args.break_oracle:
            command.append("--break-oracle")
        code = subprocess.run(command).returncode
        status = status or code
        if part.exists():
            with open(part, encoding="utf-8") as fh:
                merged["workloads"].update(json.load(fh)["workloads"])
            part.unlink()

    docs = list(merged["workloads"].values())
    print("\n== summary: end-to-end metrics by workload")
    print(f"  {'metric':<28s}" + "".join(
        f"{name:>18s}" for name in merged["workloads"]) + "  unit")
    for name in docs[0]["end_to_end"] if docs else ():
        cells = "".join(f"{doc['end_to_end'][name]['value']:18.6g}"
                        for doc in docs)
        print(f"  {name:<28s}{cells}  {docs[0]['end_to_end'][name]['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1)
    attempted = sum(d["attempted"] for d in merged["workloads"].values())
    failed = sum(d["failed"] for d in merged["workloads"].values())
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return status


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def compare(path_a: str, path_b: str, registry: dict) -> int:
    """One row per (end-to-end metric, workload): both values, how much
    worse B is than A as a share of A, and the bound; exit 1 when any
    row is beyond its bound or ``failed_share`` rose."""
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)["workloads"]
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)["workloads"]
    beyond = 0
    print(f"{'metric':<26s} {'workload':<16s} {'A':>14s} {'B':>14s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for metric in registry["end_to_end"] + [
            {"name": "failed_share", "better": "lower", "bound": 0.0}]:
        name = metric["name"]
        for workload in a:
            if workload not in b:
                continue
            va, vb = (d[workload]["end_to_end"][name]["value"]
                      for d in (a, b))
            worse = vb - va if metric["better"] == "lower" else va - vb
            worse = worse / abs(va) if va else worse
            flag = worse > metric["bound"]
            beyond += flag
            print(f"{name:<26s} {workload:<16s} {va:14.6g} {vb:14.6g} "
                  f"{worse:+9.2%} {metric['bound']:6.2f}"
                  + ("  BEYOND BOUND" if flag else ""))
    print(f"{beyond} row(s) beyond bound")
    return 1 if beyond else 0


def main(argv: list[str]) -> int:
    registry = load_registry()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], registry)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in registry["workloads"]],
                        help="run one workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=registry["run_seconds"],
                        help="measuring budget; bounds the timed fits")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale record and request counts (smoke runs)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exact number of timed fits")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--break-oracle", action="store_true",
                        help="verify against a wrong oracle (shows that a "
                             "failed check fails the run)")
    args = parser.parse_args(argv)
    if not args.workload:
        return run_all(args, registry)
    adopt_orphans()
    try:
        return run_workload(args, registry)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
