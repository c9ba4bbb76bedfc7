"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition::

    python3 perfbench/workload.py --workload campaign --seed 2025 \\
        --t0 <monotonic> --work <dir> --out <file> [--trace] [--verify]

It needs ``src`` on ``PYTHONPATH``.  ``--t0`` is the parent's
``time.monotonic()`` just before the start, so ``setup_s`` covers the
interpreter start, imports and construction.  The result (metrics,
output digests, check failures, and with ``--trace`` the layer table)
is written to ``--out`` as JSON.  Every workload runs at the CLI
defaults: ``auto`` kernel policy and cache tier, ``jobs=1``, the
``local`` scheduler (the service alone runs a one-worker fleet).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import inputs
import stats
from tracing import Tracer, self_times

#: Layers of the self-time table; a span's layer is the first dotted
#: component of its name.
LAYERS = ("characterization", "results", "persist", "runtime", "sim",
          "analysis", "service", "wire")


class Checks:
    """Counts what was attempted and what failed, for ``fail_ratio``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_tasks = 0
        self.verb_errors = 0
        self.mismatches: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.mismatches.append(what)
        return ok

    def tasks(self, report: dict) -> None:
        counts = report.get("counts", {})
        self.attempted += int(report.get("tasks", 0))
        self.failed_tasks += int(counts.get("failed", 0))
        self.expect(counts.get("quarantined", 0) == 0,
                    "run report: quarantined results")


def _result_files(directory: Path) -> dict[str, bytes]:
    from repro.runtime import LEDGER_NAME, REPORT_NAME

    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))
            if p.name not in (REPORT_NAME, LEDGER_NAME)}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# tracing: which names to wrap, and what each call tells us
# ----------------------------------------------------------------------
def _count_rows(_args, _kwargs, result, attrs) -> None:
    attrs["rows"] = len(result.measurements)


def _count_bytes(_args, _kwargs, result, attrs) -> None:
    attrs["bytes"] = len(result)


def _sim_point(_args, kwargs, _result, attrs) -> None:
    attrs.update(mitigation=kwargs.get("mitigation"), nrh=kwargs.get("nrh"),
                 pacram=kwargs.get("pacram") is not None)


def _frame(args, kwargs, result, attrs) -> None:
    attrs["bytes"] = result
    message = args[1] if len(args) > 1 else kwargs["message"]
    attrs["type"] = message.get("type")


def install_wrappers(tracer: Tracer) -> None:
    tracer.wrap("repro.characterization.campaign:characterize_module",
                "characterization", _count_rows)
    tracer.wrap("repro.characterization.campaign:_load_checked",
                "results.load")
    tracer.wrap("repro.characterization.results:ModuleCharacterization"
                ".to_json", "results.to_json", _count_bytes)
    tracer.wrap("repro.characterization.results:write_atomic",
                "persist.write")
    tracer.wrap("repro.analysis.sweeprunner:write_atomic", "persist.write")
    tracer.wrap("repro.analysis.sweeprunner:run_simulation", "sim.run",
                _sim_point)
    tracer.wrap("repro.analysis.sweeprunner:load_row", "results.load_row")
    # Task bodies, so the engine's own time is what run() spends outside
    # them.
    tracer.wrap("repro.characterization.campaign:_characterize_to",
                "runtime.task")
    tracer.wrap("repro.analysis.sweeprunner:_simulate_to", "runtime.task")
    for module in ("repro.service.api", "repro.service.client",
                   "repro.runtime.distributed"):
        tracer.wrap(f"{module}:send_frame", "wire.send", _frame)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def run_campaign(seed: int, work: Path, tracer: Tracer, ready) -> dict:
    from repro.analysis.figures import fig6_nrh_boxes_from
    from repro.characterization.campaign import CharacterizationCampaign

    config = inputs.campaign_config(seed)
    campaign = CharacterizationCampaign(work / "campaign", config)
    ready()
    checks = Checks()
    start = time.perf_counter_ns()
    with tracer.span("runtime.run"):
        results = campaign.run(jobs=1)
    roundtrip_ns = time.perf_counter_ns()

    def read_back() -> tuple[dict, str]:
        loaded = campaign.load()  # model_digest checked per module
        with tracer.span("analysis.fig6"):
            return loaded, repr(fig6_nrh_boxes_from(
                loaded, tras_factors=config.tras_factors))

    loaded, fig6 = read_back()
    rounds_ms = [(time.perf_counter_ns() - roundtrip_ns) / 1e6]
    report = json.loads(campaign.report_path().read_text())
    checks.tasks(report)
    files = _result_files(campaign.results_dir)
    rows = sum(len(m.measurements) for m in loaded.values())
    checks.expect(sorted(files) == sorted(f"{m}.json"
                                          for m in config.module_ids),
                  "campaign: result file set")
    checks.expect(rows == sum(len(m.measurements) for m in results.values()),
                  "campaign: loaded rows differ from computed rows")
    checks.expect(all(m.model_digest for m in loaded.values()),
                  "campaign: result without model digest")
    digests = {"campaign.results": stats.digest_files(files),
               "campaign.fig6": stats.digest_bytes(fig6.encode())}
    end = time.perf_counter_ns()
    rounds_ms += _more_rounds(read_back, lambda out: out[1] == fig6,
                              "campaign: fig6 changed between read-backs",
                              inputs.CAMPAIGN_READBACK_ROUNDS - 1, checks)
    return {"start_ns": start, "end_ns": end,
            "job_roundtrip_s": (roundtrip_ns - start) / 1e9,
            "readback_ms": statistics.median(rounds_ms), "rows": rows,
            "reports": [report], "checks": checks, "digests": digests}


def _more_rounds(read_back, same, what: str, count: int,
                 checks: Checks) -> list[float]:
    """Read-back rounds after the wall clock stopped: they only steady
    ``readback_ms`` (a single sub-second round is at the mercy of the
    host), and each must return what the first one did."""
    rounds_ms = []
    for _ in range(count):
        round_start = time.perf_counter_ns()
        out = read_back()
        rounds_ms.append((time.perf_counter_ns() - round_start) / 1e6)
        checks.expect(same(out), what)
    return rounds_ms


def run_sweep(seed: int, work: Path, tracer: Tracer, ready) -> dict:
    from repro.analysis.sweeprunner import (
        SweepRunner,
        load_row,
        render_aggregate,
        row_digest,
    )

    grid = inputs.sweep_grid(seed)
    runner = SweepRunner(work / "sweep", grid)
    points = grid.points()
    ready()
    checks = Checks()
    start = time.perf_counter_ns()
    with tracer.span("runtime.run"):
        rows = runner.run(jobs=1)
    roundtrip_ns = time.perf_counter_ns()
    with tracer.span("analysis.aggregate"):
        aggregate = runner.aggregate(rows)
    with tracer.span("analysis.render"):
        fig17 = render_aggregate(aggregate)
    report = json.loads(runner.report_path().read_text())
    checks.tasks(report)
    checks.expect(len(rows) == len(points), "sweep: row count")
    checks.expect(all(r.digest is not None
                      and r.digest == row_digest(asdict(r)) for r in rows),
                  "sweep: row digest")
    checks.expect(len(fig17.splitlines()) == len(grid.mitigations)
                  * (len(grid.pacram_vendors) - 1),
                  "sweep: fig17 series count")
    preventive = sum(r.preventive_refresh_rows for r in rows)
    files = _result_files(runner.results_dir)
    digests = {"sweep.rows": stats.digest_files(files),
               "sweep.fig17": stats.digest_bytes(fig17.encode()),
               "sweep.preventive_refresh_rows": str(preventive)}
    end = time.perf_counter_ns()

    def read_back() -> tuple[list, str]:
        """The read path of a finished sweep, as the service's figure verb
        runs it: every row back from disk (digest-checked), then fig17."""
        again = [load_row(runner.row_path(p)) for p in points]
        return again, render_aggregate(runner.aggregate(again))

    rounds_ms = _more_rounds(read_back, lambda out: out == (rows, fig17),
                             "sweep: rows read back differ from rows "
                             "computed", inputs.SWEEP_READBACK_ROUNDS, checks)
    roundtrip_s = (roundtrip_ns - start) / 1e9
    requests = len(rows) * grid.requests  # one core per point
    return {"start_ns": start, "end_ns": end,
            "job_roundtrip_s": roundtrip_s,
            "readback_ms": statistics.median(rounds_ms), "rows": len(rows),
            "sim_requests_per_s": requests / roundtrip_s,
            "preventive_refresh_rows": preventive, "reports": [report],
            "checks": checks, "digests": digests}


def _verify_fetched(files: dict[str, bytes], kind: str, scratch: Path,
                    checks: Checks) -> int:
    """Run the program's own loaders (with their digest checks) over
    fetched result bytes; returns the rows they hold."""
    from repro.analysis.sweeprunner import load_row
    from repro.characterization.campaign import _load_checked

    scratch.mkdir(parents=True, exist_ok=True)
    rows = 0
    for name, data in files.items():
        path = scratch / name
        path.write_bytes(data)
        try:
            if kind == "campaign":
                rows += len(_load_checked(path).measurements)
            else:
                load_row(path)
                rows += 1
            ok = True
        except Exception:  # noqa: BLE001 — any loader refusal is a mismatch
            ok = False
        checks.expect(ok, f"service: fetched {kind} file {name} fails its "
                          f"loader check")
    return rows


def run_service(seed: int, work: Path, tracer: Tracer, ready) -> dict:
    from repro.errors import ConfigError
    from repro.service.api import CharacterizationService
    from repro.service.client import ServiceClient
    from repro.service.manager import RunOptions

    campaign_spec, sweep_spec = inputs.service_specs(seed)
    service = CharacterizationService(
        work / "jobs", options=RunOptions(scheduler="fleet", workers=1))
    client = None
    try:
        client = ServiceClient(service.start())
        ready()
        checks = Checks()

        def verb(name: str, call, *args):
            checks.attempted += 1
            try:
                with tracer.span(name):
                    return call(*args)
            except ConfigError:
                checks.verb_errors += 1
                return None

        start = time.perf_counter_ns()
        with tracer.span("service.job_submit"):
            jobs = [client.submit(campaign_spec), client.submit(sweep_spec)]
        checks.attempted += 2
        fetched = []
        for job in jobs:
            # The wait for the job is not a span: the work happens in the
            # runner thread and the forked fleet worker.
            final = client.stream(job["job_id"])
            checks.attempted += 1
            checks.expect(final.get("state") == "done",
                          f"service: job {job['kind']} ended {final}")
            with tracer.span("service.job_results"):
                fetched.append(client.results(job["job_id"]))
            checks.attempted += 1
        roundtrip_s = (time.perf_counter_ns() - start) / 1e9
        campaign_id, sweep_id = (job["job_id"] for job in jobs)
        figures = {"fig6": verb("service.figure.fig6", client.figure,
                                campaign_id, "fig6"),
                   "fig17": verb("service.figure.fig17", client.figure,
                                 sweep_id, "fig17")}
        reports = []
        for job in jobs:
            path = service.manager.store.results_dir(job["job_id"]) \
                / "run_report.json"
            reports.append(json.loads(path.read_text()))
            checks.tasks(reports[-1])
        rows = (_verify_fetched(fetched[0], "campaign", work / "fetched-c",
                                checks)
                + _verify_fetched(fetched[1], "sweep", work / "fetched-s",
                                  checks))
        checks.expect(sorted(fetched[0]) == sorted(
            f"{m}.json" for m in campaign_spec.config.module_ids),
            "service: campaign file set")
        checks.expect(len(fetched[1]) == len(sweep_spec.config.points()),
                      "service: sweep row count")

        rounds_ms: list[float] = []
        events = 0
        plan = ((campaign_id, campaign_spec, "fig6", fetched[0]),
                (sweep_id, sweep_spec, "fig17", fetched[1]))
        for _ in range(inputs.SERVICE_ROUNDS):
            round_start = time.perf_counter_ns()
            events = 0
            for job_id, spec, figure, files in plan:
                again = verb("service.submit", client.submit, spec)
                checks.expect(bool(again) and again.get("deduped") is True
                              and again.get("job_id") == job_id,
                              "service: resubmission not deduped")
                status = verb("service.status", client.status, job_id)
                checks.expect(bool(status) and status.get("state") == "done",
                              "service: status of a finished job")
                seen: list[dict] = []
                final = verb("service.stream_replay", client.stream, job_id,
                             seen.append)
                checks.expect(bool(final) and final.get("state") == "done"
                              and bool(seen), "service: stream replay")
                events += len(seen)
                again_files = verb("service.results", client.results, job_id)
                checks.expect(again_files == files,
                              "service: results changed between fetches")
                text = verb(f"service.figure.{figure}", client.figure,
                            job_id, figure)
                checks.expect(text is not None and text == figures[figure],
                              f"service: {figure} changed between fetches")
            rounds_ms.append((time.perf_counter_ns() - round_start) / 1e6)
        end = time.perf_counter_ns()
    finally:
        if client is not None:
            client.close()
        service.stop()
    results_bytes = sum(len(d) for files in fetched for d in files.values())
    digests = {"service.campaign_files": stats.digest_files(fetched[0]),
               "service.sweep_files": stats.digest_files(fetched[1]),
               "service.fig6": stats.digest_bytes(
                   str(figures["fig6"]).encode()),
               "service.fig17": stats.digest_bytes(
                   str(figures["fig17"]).encode())}
    return {"start_ns": start, "end_ns": end, "job_roundtrip_s": roundtrip_s,
            "readback_ms": statistics.median(rounds_ms), "rows": rows,
            "events": events, "results_bytes": results_bytes,
            "reports": reports, "checks": checks, "digests": digests,
            "fetched_campaign": fetched[0]}


def verify_against_local(seed: int, work: Path, fetched: dict[str, bytes],
                         checks: Checks) -> None:
    """The service's campaign files must equal what the ``campaign``
    workload writes for the same modules and seed (each module's file
    depends only on its id, the seed and the test points)."""
    from repro.characterization.campaign import (
        CampaignConfig,
        CharacterizationCampaign,
    )

    modules = inputs.service_modules(seed)
    local = CharacterizationCampaign(
        work / "local-campaign", CampaignConfig(module_ids=modules,
                                                seed=seed))
    local.run(jobs=1)
    mine = _result_files(local.results_dir)
    for name in sorted(set(mine) | set(fetched)):
        checks.expect(mine.get(name) == fetched.get(name),
                      f"service: fetched {name} differs from a local "
                      f"campaign's file")


WORKLOADS = {"campaign": run_campaign, "sweep": run_sweep,
             "service": run_service}


# ----------------------------------------------------------------------
# per-layer metrics (traced repetitions)
# ----------------------------------------------------------------------
def _ms(spans) -> list[float]:
    return [s.seconds * 1e3 for s in spans]


def layer_metrics(tracer: Tracer, start_ns: int, end_ns: int,
                  outcome: dict) -> dict[str, float]:
    from repro.runtime.cache import cache_counters

    # Read-back rounds after the wall clock stopped are not in the table.
    tracer.spans[:] = [s for s in tracer.spans if s.start_ns < end_ns]
    owned, remainder = self_times(tracer.spans, start_ns, end_ns)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in owned.items():
        layer_self[name.split(".")[0]] += seconds
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"trace.self_s.{layer}"] = layer_self[layer]
    m["trace.remainder_s"] = remainder
    m["trace.wall_s"] = (end_ns - start_ns) / 1e9

    modules = tracer.named("characterization")
    m["characterization.self_s"] = owned.get("characterization", 0.0)
    m["characterization.rows"] = sum(s.attrs.get("rows", 0) for s in modules)
    summary = stats.summarize(_ms(modules))
    m["characterization.module_ms.n"] = summary["n"]
    m["characterization.module_ms.p50"] = summary.get("p50", 0.0)
    m["characterization.module_ms.p66"] = summary.get("p66", 0.0)

    m["results.to_json_s"] = tracer.total_s("results.to_json")
    m["results.bytes"] = sum(s.attrs.get("bytes", 0)
                             for s in tracer.named("results.to_json"))
    m["results.load_s"] = tracer.total_s("results.load")
    m["results.load_row_s"] = tracer.total_s("results.load_row")
    m["persist.write_s"] = tracer.total_s("persist.write")
    m["persist.writes"] = len(tracer.named("persist.write"))

    m["runtime.overhead_s"] = owned.get("runtime.run", 0.0)
    m["runtime.task_s"] = tracer.total_s("runtime.task")
    reports = outcome["reports"]
    m["runtime.retries"] = sum(r["counts"]["retries"] for r in reports)
    m["runtime.failed"] = sum(r["counts"]["failed"] for r in reports)
    m["fleet.leases"] = sum(
        w.get("tasks", 0) + w.get("revoked", 0) + w.get("failures", 0)
        for r in reports for w in r.get("workers", {}).values())
    m["fleet.revoked"] = sum(r.get("leases", {}).get("revoked", 0)
                             for r in reports)

    counters = cache_counters()
    for cache in ("baseline", "probe"):
        counts = counters.get(cache, {})
        hits = counts.get("hits", 0) + counts.get("disk_hits", 0)
        misses = counts.get("misses", 0)
        m[f"cache.{cache}.hits"] = hits
        m[f"cache.{cache}.misses"] = misses
        if cache == "baseline":
            m["cache.baseline.hit_ratio"] = (hits / (hits + misses)
                                             if hits + misses else 0.0)

    points = tracer.named("sim.run")
    m["sim.run_s"] = sum(s.seconds for s in points)
    summary = stats.summarize(_ms(points))
    m["sim.point_ms.n"] = summary["n"]
    m["sim.point_ms.p50"] = summary.get("p50", 0.0)
    m["sim.point_ms.p95"] = summary.get("p95", 0.0)
    for mitigation in inputs.MITIGATIONS:
        m[f"sim.run_s.{mitigation}"] = sum(
            s.seconds for s in points if s.attrs["mitigation"] == mitigation)
    m["sim.run_s.nopacram"] = sum(s.seconds for s in points
                                  if not s.attrs["pacram"])
    m["sim.run_s.pacram"] = sum(s.seconds for s in points
                                if s.attrs["pacram"])
    m["sim.run_s.nrh_le_128"] = sum(s.seconds for s in points
                                    if s.attrs["nrh"] <= 128)
    m["sim.run_s.nrh_ge_256"] = sum(s.seconds for s in points
                                    if s.attrs["nrh"] >= 256)
    m["sim.preventive_refresh_rows"] = outcome.get("preventive_refresh_rows",
                                                   0)

    m["analysis.fig6_ms"] = tracer.total_s("analysis.fig6") * 1e3
    m["analysis.aggregate_ms"] = tracer.total_s("analysis.aggregate") * 1e3
    m["analysis.render_ms"] = tracer.total_s("analysis.render") * 1e3

    verbs = {"service.submit_ms": "service.submit",
             "service.status_ms": "service.status",
             "service.stream_replay_ms": "service.stream_replay",
             "service.results_ms": "service.results",
             "service.figure_ms.fig6": "service.figure.fig6",
             "service.figure_ms.fig17": "service.figure.fig17"}
    for metric, span in verbs.items():
        samples = _ms(tracer.named(span))
        m[metric] = statistics.median(samples) if samples else 0.0
    m["service.verb_samples"] = len(tracer.named("service.submit"))
    m["service.events"] = outcome.get("events", 0)
    m["service.results_bytes"] = outcome.get("results_bytes", 0)

    frames = tracer.named("wire.send")
    m["wire.frames"] = len(frames)
    m["wire.bytes"] = sum(s.attrs.get("bytes", 0) for s in frames)
    m["wire.send_s"] = sum(s.seconds for s in frames)
    m["wire.lease_frames"] = sum(1 for s in frames
                                 if s.attrs.get("type") == "lease")
    return m


# ----------------------------------------------------------------------
def environment(work: Path) -> dict:
    import numpy

    from repro.exec import resolve_kernel

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernels": {stage: resolve_kernel(stage)
                        for stage in ("device", "sim", "host")},
            "tmp_fs": filesystem_type(work)}


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (longest mount point
    prefix in ``/proc/mounts``), or ``unknown``."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    path = path.resolve()
    best, fstype = -1, "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = Path(fields[1])
        if (path == mount or mount in path.parents) \
                and len(str(mount)) > best:
            best, fstype = len(str(mount)), fields[2]
    return fstype


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(args.trace)
    install_wrappers(tracer)
    ready_at: list[float] = []
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.work, tracer,
            lambda: ready_at.append(time.monotonic()))
        peak = _peak_rss_mb()
    except Exception:  # noqa: BLE001 — reported to the parent, which fails
        traceback.print_exc()
        args.out.write_text(json.dumps({"error": traceback.format_exc()}))
        return 1
    finally:
        tracer.unwrap_all()
    checks: Checks = outcome.pop("checks")
    if args.verify:
        verify_against_local(args.seed, args.work,
                             outcome["fetched_campaign"], checks)
    outcome.pop("fetched_campaign", None)
    result = {
        "workload": args.workload, "seed": args.seed, "traced": args.trace,
        "setup_s": ready_at[0] - args.t0, "peak_rss_mb": peak,
        "wall_s": (outcome["end_ns"] - outcome["start_ns"]) / 1e9,
        "attempted": checks.attempted, "failed_tasks": checks.failed_tasks,
        "verb_errors": checks.verb_errors, "mismatches": checks.mismatches,
        "environment": environment(args.work),
    }
    result.update({k: v for k, v in outcome.items() if k != "reports"})
    if args.trace:
        result["layers"] = layer_metrics(tracer, outcome["start_ns"],
                                         outcome["end_ns"], outcome)
    args.out.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
