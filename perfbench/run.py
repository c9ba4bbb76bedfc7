"""End-to-end benchmark of the reproduction: campaign, sweep and service.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 2025 \\
        --seconds 44 --trace 0

Each repetition runs one workload (see ``inputs.py`` and ``README.md``)
as one closed-loop client in a fresh interpreter (``workload.py``),
again and again until the next repetition would end after ``--seconds``;
every end-to-end metric is the median over the repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced repetition with the median wall time,
plus the tracing overhead.

Outputs are checked in every repetition: the program's own loaders
(``model_digest``, ``SweepRow.digest``), cross-repetition determinism,
the pinned default-seed digests in ``expected.json``, and for the
service a byte comparison against a local campaign.  Any mismatch makes
``correct`` false and the exit code 1.  The last line of standard
output is the JSON result; the lines above it print every metric with
its unit, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent
#: Fewest repetitions a run makes, however short ``--seconds`` is.
MIN_REPS = 3
#: A repetition that takes longer than this is killed and counted failed.
REP_TIMEOUT_S = 120.0

WORKLOADS = ("campaign", "sweep", "service")
#: Reported by one workload only, so printed but not in BENCHMARK.json
#: (whose end-to-end metrics every workload must report, never as 0).
EXTRA_E2E = {"sim_requests_per_s": "1/s"}


def run_rep(args, index: int, work: Path, traced: bool,
            verify: bool) -> dict:
    """One repetition in a fresh interpreter, in its own process group."""
    rep_dir = work / f"rep{index}"
    out = work / f"rep{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(work / "tmp")
    command = [sys.executable, str(HERE / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--work", str(rep_dir), "--out", str(out)]
    command += ["--trace"] if traced else []
    command += ["--verify"] if verify else []
    command += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(command, env=env, cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The fleet worker is a grandchild: end the whole group, and wait
        # (boundedly) until no process of it is left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    shutil.rmtree(rep_dir, ignore_errors=True)
    if code != 0 or not out.exists():
        return {"error": f"repetition {index} exited with {code}"}
    result = json.loads(out.read_text())
    out.unlink()
    return result


def check_outputs(workload: str, seed: int, reps: list[dict],
                  ) -> tuple[int, list[str]]:
    """Checks across repetitions; returns (attempted, mismatches)."""
    attempted, mismatches = 0, []
    good = [r for r in reps if "error" not in r]
    if not good:
        return 0, []
    first = good[0]["digests"]
    for rep in good[1:]:
        attempted += 1
        changed = stats.compare_digests(rep["digests"], first)
        if changed:
            mismatches.append(f"outputs differ between repetitions: "
                              f"{changed}")
    if seed == inputs.DEFAULT_SEED:
        pinned = json.loads((HERE / "expected.json").read_text())[workload]
        attempted += len(pinned)
        for name in stats.compare_digests(first, pinned):
            mismatches.append(f"{name}: digest {first.get(name)} differs "
                              f"from the pinned {pinned[name]}")
    return attempted, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, contract, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


def measure(args, contract: dict, work: Path) -> int:
    reps: list[dict] = []
    durations: list[float] = []
    started = time.monotonic()
    # Start another repetition only while it is expected to end within
    # --seconds, so a run measures for about that long.
    while (len(reps) < MIN_REPS + (1 if args.trace else 0)
           or time.monotonic() - started + statistics.median(durations)
           <= args.seconds):
        index = len(reps)
        traced = bool(args.trace) and index % 2 == 1
        verify = args.workload == "service" and index == 0
        rep_started = time.monotonic()
        reps.append(run_rep(args, index, work, traced, verify))
        durations.append(time.monotonic() - rep_started)
        if "error" in reps[-1]:
            break

    attempted, mismatches = check_outputs(args.workload, args.seed, reps)
    failed_tasks = verb_errors = 0
    for rep in reps:
        attempted += rep.get("attempted", 1)
        if "error" in rep:
            mismatches.append(rep["error"])
            continue
        failed_tasks += rep["failed_tasks"]
        verb_errors += rep["verb_errors"]
        mismatches += rep["mismatches"]
    failed = failed_tasks + verb_errors + len(mismatches)
    good = [r for r in reps if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    correct = failed == 0

    if not untraced or (args.trace and not traced):
        for line in mismatches:
            print(f"MISMATCH {line}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    for rep in good:
        rep["rows_per_s"] = rep["rows"] / rep["job_roundtrip_s"]
    if args.trace:
        values = per_layer(traced, untraced)
        spec = contract["per_layer"]
    else:
        spec = contract["end_to_end"]
        values = {entry["name"]: statistics.median(
            r[entry["name"]] for r in untraced) for entry in spec}
    names = [entry["name"] for entry in spec]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics measured {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    metrics, table = {}, []
    for entry in spec:
        name, unit = stats.check_metric_name(entry["name"]), entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        table.append(f"  {name:<34} {values[name]:>16.6g} {unit}")

    env = good[0]["environment"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(reps)} ({len(untraced)} untraced)  "
          f"trace {args.trace}")
    print(f"environment: nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  kernels(auto) "
          + " ".join(f"{k}={v}" for k, v in sorted(env["kernels"].items()))
          + f"  tmp fs {env['tmp_fs']}")
    print("\n".join(table))
    print("  wall_s by repetition: " + " ".join(
        f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in good))
    for name, unit in EXTRA_E2E.items():
        if not args.trace and name in untraced[0]:
            value = statistics.median(r[name] for r in untraced)
            print(f"  {name:<34} {value:>16.6g} {unit}   "
                  f"({args.workload} only)")
    ratio = stats.fail_ratio(attempted, failed_tasks, verb_errors,
                             len(mismatches))
    print(f"  {'fail_ratio':<34} {ratio:>16.6g} ratio   ({failed_tasks} "
          f"failed tasks, {verb_errors} verb errors, {len(mismatches)} "
          f"output mismatches of {attempted} attempted)")
    for line in mismatches:
        print(f"MISMATCH {line}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """The layer table of the traced repetition with the median wall
    time, plus the overhead of tracing (medians of the two kinds)."""
    ordered = sorted(traced, key=lambda r: r["wall_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    values = dict(chosen["layers"])
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = (statistics.median(r["wall_s"]
                                                    for r in traced)
                                  - untraced_wall)
    return values


if __name__ == "__main__":
    sys.exit(main())
