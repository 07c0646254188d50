"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_trace import Tracer, layer_metrics  # noqa: E402
from bench_workloads import (  # noqa: E402
    WORKLOADS,
    PassResult,
    check_digests,
    check_outputs,
    make_config,
    run_pass,
)
from host_speed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _config(tmp_path: Path, workload: str, **overrides) -> Path:
    config = {**make_config(workload, 7, tmp_path / "out"), **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def _current(owner, attr, item):
    if item:
        return owner[attr]
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_pass_restores_every_wrapped_name(tmp_path):
    import signaltwin.traffic as traffic

    # A short twin: two periods of nine jobs in two worker processes.
    config = _config(tmp_path, "twin-s2s5-p2", horizon=900.0, warmup=100.0, cooldown=100.0)
    tracer = Tracer(tmp_path)
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert traffic.Simulation.__dict__["step"].__wrapped__ is not None
        res = run_pass("twin-s2s5-p2", config, tmp_path / "out")
    finally:
        tracer.restore()
    tracer.merge_worker_spans()

    assert res.failed == 0, res.problems
    assert len(patches) >= 20
    for owner, attr, original, item in patches:
        assert _current(owner, attr, item) is original, attr
    assert not list(tmp_path.glob("worker-*.npz"))
    layers = layer_metrics(tracer)
    assert layers["twin.jobs"] == 18
    assert layers["traffic.init_calls"] == 19  # the jobs, run in workers, and the live run
    assert layers["signals.ticks"] == 9 * layers["traffic.steps"]


def test_failed_command_and_corrupted_artifact_count_as_failures(tmp_path):
    bad = run_pass("compare-s11", _config(tmp_path, "compare-s11", scenario=99), tmp_path / "out")
    assert bad.failed == 1 and bad.attempted == 1

    out = tmp_path / "out"
    config = _config(tmp_path, "simulate-report-s11", horizon=1300.0)
    good = run_pass("simulate-report-s11", config, out)
    assert good.failed == 0 and good.attempted > 2, good.problems
    check_digests(good, good.digests)
    assert good.failed == 0

    summary = json.loads((out / "summary.json").read_text())
    summary["mean_control_delay"] += 1.0
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    corrupted = PassResult()
    check_outputs("simulate-report-s11", out, corrupted)
    check_digests(corrupted, good.digests)
    assert corrupted.failed == 2  # report disagrees, and the digest differs
    assert corrupted.failed / corrupted.attempted > 0


def test_host_speed_probes_only_while_entered():
    previous = signal.getsignal(signal.SIGALRM)
    host = HostSpeed()
    with host:
        t_end = perf_counter() + 0.3
        while perf_counter() < t_end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(host.samples) >= 3
    assert 0 < host.probed_s() < 0.3
    assert host.reference_s(2 * host.probe_s()) == pytest.approx(2 * REFERENCE_PROBE_S)
    host.clear()
    with pytest.raises(RuntimeError):
        host.probe_s()


def _run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_printed_metric_names_equal_the_declared_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run_bench("compare-s11", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    proc = _run_bench("compare-s11", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
