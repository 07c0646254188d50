"""signaltwin benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all    # every workload, untraced and traced

Workloads, metrics and their bounds are listed in BENCHMARK.json.  Each
workload is a fixed sequence of CLI commands, run in this process through
``signaltwin.cli.main`` on configs generated from ``--seed``.  The runner
repeats the sequence (a *pass*) until ``--seconds`` have passed and reports
medians over the passes.

``--trace 0`` reports the end-to-end metrics: the pass time and the
set-up time (median of several fresh interpreters, see setup_probe.py),
both as reference times, that is wall times scaled to a fixed host speed
(see host_speed.py), and the peak RSS of this process and its worker
processes.  The raw wall times are printed above the result line.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see bench_trace.py); the spans are
written to ``perfbench/_traces/``.

Every pass checks its outputs: each command exits 0, ``report.json``
agrees with ``summary.json``, no twin period is degraded and no job fails,
and the sha256 of each artifact matches the digests stored in digests.json
(for the default seed 42) or those of the run's first pass (for any other
seed; the digests are printed so that two commits can be compared byte for
byte).  Operations are CLI commands, twin jobs and output checks; the last
line printed is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
DEFAULT_SEED = 42  # the seed whose artifact digests digests.json stores

sys.path.insert(0, str(BENCH_DIR))

from host_speed import HostSpeed  # noqa: E402
from bench_workloads import (  # noqa: E402
    WORKLOADS,
    check_digests,
    make_config,
    run_pass,
    stored_digests,
    trajectory_probe,
)


def import_program() -> None:
    """Import signaltwin from this checkout's source tree, or exit."""
    package = SRC / "signaltwin"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import signaltwin

    if Path(signaltwin.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: signaltwin was imported from {signaltwin.__file__}")


def host_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload: str, config_path: Path, out: Path) -> list[tuple[float, float]]:
    """Set-up wall and reference times of the workload's first command in
    fresh interpreters; the first, which may compile bytecode, is not
    counted."""
    command = WORKLOADS[workload].commands[0]
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
            command, "--config", str(config_path), "--out", str(out)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, ref = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(wall), float(ref)))
    return times[1:]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.out = work / "out"
        self.config_path = work / "config.json"
        self.config_path.write_text(
            json.dumps(make_config(workload, seed, self.out), indent=2) + "\n"
        )
        self.reference = stored_digests(workload, seed)
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None, host=None):
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            res = run_pass(self.workload, self.config_path, self.out, host)
        finally:
            if tracer is not None:
                tracer.restore()
        if self.reference is None:
            self.reference = res.digests
            print(f"digests seed={self.seed}: {json.dumps(res.digests, sort_keys=True)}")
        check_digests(res, self.reference)
        self.attempted += res.attempted
        self.failed += res.failed
        for problem in res.problems:
            print(f"FAILED: {problem}")
        times = " ".join(f"{cmd}={t:.4f}s" for cmd, t in res.command_s.items())
        speed = f"ref={res.ref_s:.4f}s probe={host.probe_s() * 1e3:.4f}ms " if host else ""
        print(f"pass{' (traced)' if tracer else ''}: wall={res.wall_s:.4f}s {speed}{times}")
        return res

    def end_to_end(self) -> dict[str, float]:
        host = HostSpeed()
        passes = []
        t_end = perf_counter() + self.seconds
        while not passes or perf_counter() < t_end:
            passes.append(self.one_pass(host=host))
        rss = peak_rss_mb()
        setup = measure_setup(self.workload, self.config_path, self.work / "setup")
        print(f"set-up wall: {' '.join(f'{wall:.4f}s' for wall, _ in setup)}")
        print(f"set-up ref: {' '.join(f'{ref:.4f}s' for _, ref in setup)}")
        print(f"setup wall median: {statistics.median(wall for wall, _ in setup):.4f}s")
        print(f"pass wall median: {statistics.median(p.wall_s for p in passes):.4f}s")
        for cmd in WORKLOADS[self.workload].commands:
            print(f"{cmd} wall median: {statistics.median(p.command_s[cmd] for p in passes):.4f}s")
        return {
            "wall_ref_s": statistics.median(p.ref_s for p in passes),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mb": rss,
        }

    def per_layer(self) -> dict[str, float]:
        from bench_trace import Tracer, layer_metrics

        trace_dir = BENCH_DIR / "_traces"
        trace_dir.mkdir(exist_ok=True)
        spill = self.work / "spill"
        spill.mkdir()
        t_end = perf_counter() + self.seconds
        plain, traced, layers = [], [], []
        while not traced or perf_counter() < t_end:
            plain.append(self.one_pass())
            tracer = Tracer(spill)
            traced.append(self.one_pass(tracer))
            tracer.merge_worker_spans()
            tracer.write(trace_dir / f"{self.workload}.npz")
            layers.append(layer_metrics(tracer))
        metrics = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if isinstance(values[0], int):  # a count: it must repeat exactly
                self.attempted += 1
                if len(set(values)) > 1:
                    self.failed += 1
                    print(f"FAILED: count {name} differs between passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        traj_s, traj_rows = trajectory_probe(self.workload, self.seed, self.work / "probe.csv")
        metrics.update({
            "traffic.traj_s": traj_s,
            "traffic.traj_rows": traj_rows,
            "cli.traj_bytes": traced[-1].traj_bytes,
            "twin.useful_job_ratio": traced[-1].useful_job_ratio,
            "trace.overhead_s": statistics.median(p.wall_s for p in traced)
            - statistics.median(p.wall_s for p in plain),
        })
        return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = BENCH_DIR / "_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(f"workload {workload} seed={seed} seconds={seconds} trace={int(trace)}")
        print(f"host at start: {json.dumps(host_facts())}")
        run = Run(workload, seed, seconds, work)
        values = run.per_layer() if trace else run.end_to_end()
        print(f"host at end: {json.dumps(host_facts())}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = spec["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)))
        return 0
    # Every workload, untraced then traced; metric names get the workload
    # as a prefix.
    results = {(w, trace): run_workload(w, args.seed, args.seconds, trace, spec)
               for w in WORKLOADS for trace in (False, True)}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
