"""The benchmark's workloads: generated configs, one measured pass, and the
checks on what each pass wrote.

A pass runs the workload's CLI commands in this process through
``signaltwin.cli.main`` and times each one.  Every pass then checks its
outputs; the checks are not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

DIGESTS_PATH = Path(__file__).with_name("digests.json")

@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]  # the CLI commands of one pass, in order
    config: dict  # config entries besides seed, horizon and out
    artifacts: tuple[str, ...]  # digested files, relative to the output dir


# BENCHMARK.json says why each workload was chosen.
WORKLOADS = {
    "simulate-report-s11": Workload(
        ("simulate", "report"),
        {"scenario": 11, "algorithms": ["dt1"], "log_trajectory": True},
        ("summary.json", "signals.csv", "trajectory.csv"),
    ),
    "compare-s11": Workload(
        ("compare",),
        {"scenario": 11, "algorithms": ["baseline", "dt1", "dt2"], "log_trajectory": False},
        ("comparison.csv",) + tuple(
            f"{algo}/{name}" for algo in ("baseline", "dt1", "dt2")
            for name in ("summary.json", "signals.csv")
        ),
    ),
    "twin-s2s5-p2": Workload(
        ("twin",),
        {"log_trajectory": False, "parallelism": 2, "twin": {
            "demand_program": [{"start": 0.0, "scenario": 2}, {"start": 1800.0, "scenario": 5}],
        }},
        ("twin_manifest.json", "summary.json", "signals.csv"),
    ),
}


def make_config(workload: str, seed: int, out: Path) -> dict:
    """The config file the program receives for ``workload``."""
    return {"seed": seed, "horizon": 3600.0, "out": str(out), **WORKLOADS[workload].config}


def stored_digests(workload: str, seed: int) -> dict[str, str] | None:
    """The artifact digests stored for ``workload``, if stored for ``seed``."""
    data = json.loads(DIGESTS_PATH.read_text())
    return data["workloads"].get(workload) if seed == data["seed"] else None


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class PassResult:
    wall_s: float = 0.0
    ref_s: float = 0.0  # wall_s at the reference host speed, if probed
    command_s: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    traj_bytes: int = 0
    useful_job_ratio: float = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """Count one output check, and a failure if it does not hold."""
        self.attempted += 1
        if not ok:
            self.fail(problem)


def run_pass(workload: str, config_path: Path, out: Path, host=None) -> PassResult:
    """Run the workload's commands once, then check what they wrote.

    ``host``, a ``HostSpeed``, if given, probes the host's speed while
    each command is timed, and gives the pass's reference time.
    """
    from signaltwin.cli import main

    shutil.rmtree(out, ignore_errors=True)
    if host is not None:
        host.clear()
    res = PassResult()
    sink = io.StringIO()
    for command in WORKLOADS[workload].commands:
        with host or contextlib.nullcontext():
            t0 = perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main([command, "--config", str(config_path)])
            res.command_s[command] = perf_counter() - t0
        res.attempted += 1
        if code != 0:
            res.fail(f"{command} exited {code}: {sink.getvalue().strip()[-300:]}")
    res.wall_s = sum(res.command_s.values())
    if host is not None:
        res.ref_s = host.reference_s(res.wall_s - host.probed_s())
    if not res.failed:
        check_outputs(workload, out, res)
    return res


def check_outputs(workload: str, out: Path, res: PassResult) -> None:
    """Check what a pass wrote to ``out`` and record the artifact digests."""
    commands = WORKLOADS[workload].commands
    if "report" in commands:
        _check_report(res, out)
    if "twin" in commands:
        _check_twin(res, out)
    if (out / "trajectory.csv").is_file():
        res.traj_bytes = (out / "trajectory.csv").stat().st_size
    for rel in WORKLOADS[workload].artifacts:
        path = out / rel
        res.check(path.is_file(), f"{rel} missing")
        if path.is_file():
            res.digests[rel] = sha256_file(path)


def _agree(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _check_report(res: PassResult, out: Path) -> None:
    """``report.json``, recomputed from the trajectory, agrees with
    ``summary.json``, which the engine wrote."""
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "report.json").read_text())
    for key in ("window", "measured_traversals", "mean_control_delay", "los"):
        a, b = summary[key], report[key]
        same = all(map(_agree, a, b)) if isinstance(a, list) else _agree(a, b)
        res.check(same, f"report {key}={b!r} != summary {a!r}")
    res.check(summary["aasd"].keys() == report["aasd"].keys(), "report aasd movements differ")
    for movement, value in summary["aasd"].items():
        res.check(_agree(value, report["aasd"].get(movement)),
                  f"report aasd[{movement}] != summary")


def _check_twin(res: PassResult, out: Path) -> None:
    """No period is degraded and no job failed."""
    manifest = json.loads((out / "twin_manifest.json").read_text())
    jobs = useful = 0
    for period in manifest["periods"]:
        res.check(not period["degraded"], f"period {period['period']} degraded")
        for job in period["jobs"]:
            res.attempted += 1
            jobs += 1
            useful += job["candidate"] == period["matched_index"]
            if job["error"]:
                res.fail(f"job {job['job_id']}: {job['error']}")
    res.useful_job_ratio = useful / jobs if jobs else 0.0


def check_digests(res: PassResult, reference: dict[str, str]) -> None:
    """Each artifact is byte for byte the reference artifact."""
    for rel, expected in sorted(reference.items()):
        res.check(res.digests.get(rel) == expected, f"{rel} sha256 differs from the reference")


def trajectory_probe(workload: str, seed: int, path: Path) -> tuple[float, int]:
    """Time one of the workload's simulations without and with a
    trajectory sink; return the difference and the rows written."""
    from signaltwin import DemandPhase, Simulation, build_grid, scenario_catalog
    from signaltwin.twin import build_live_schedule

    # The CLI's default grid and scenario ladder (base_vph 40, ladder 0.25).
    network = build_grid(3, 3)
    catalog = scenario_catalog(40.0, 0.25, network.straight_od_pairs())

    def make(sink):
        if "twin" in WORKLOADS[workload].commands:
            program = [DemandPhase(0.0, catalog[1].flows), DemandPhase(1800.0, catalog[4].flows)]
            schedule = build_live_schedule(program, 3600.0, seed)
            return Simulation(network, schedule=schedule, seed=seed, trajectory_sink=sink)
        return Simulation(network, flows=catalog[10].flows, algorithm="dt1", seed=seed,
                          trajectory_sink=sink)

    t0 = perf_counter()
    make(None).run()
    plain = perf_counter() - t0
    with open(path, "w", newline="") as fh:
        t0 = perf_counter()
        make(fh.write).run()
        logged = perf_counter() - t0
    with open(path, "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return logged - plain, rows
