"""Span tracer for the benchmark's traced run.

The tracer replaces public names of the ``signaltwin`` modules with
wrappers that record one span (name, start, end, parent) per call, at the
place where the program looks each name up.  Spans live in compact
in-memory arrays and are written out once, when the traced pass ends.
``restore`` puts every original object back.

Twin jobs run in forked worker processes.  Each worker inherits the
wrappers, clears the spans it inherited, and writes its own spans to a
file when it exits; the parent merges them under the ``run_parallel`` span
that started the workers.

``signaltwin.delay`` is deliberately not wrapped: ``update_waiting`` runs
once per vehicle and step, so a wrapper there would double the engine's
run time.  Its work is counted by ``traffic.vehicle_steps`` and its time
sits inside ``traffic.step_self_s``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# Span names of the wrapped call sites, in the order they are installed.
SPAN_NAMES = (
    "cli.command",
    "cli.run_one_simulation",
    "cli.read_trajectory",
    "metrics.recompute",
    "traffic.init",
    "traffic.run_until",
    "traffic.step",
    "signals.tick",
    "controllers.decide",
    "network.shortest_path",
    "traffic.generate_departures",
    "twin.live_loop",
    "twin.build_live_schedule",
    "twin.estimate_demand",
    "twin.forecast_demands",
    "twin.run_parallel",
    "twin.match_demand",
    "twin.select_controller",
)
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Records spans for the duration of one traced pass."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: dict[str, int] = {}
        self.run_parallel_calls: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        stack = self._stack
        idx = len(self.starts)
        self.names.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """A wrapper that records a span named ``name`` around ``fn``.

        ``after(args, result)`` runs outside the span, so its own cost is
        not charged to the layer.
        """
        name_id = _NAME_ID[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installing and restoring ----------------------------------------

    def _patch(self, owner, attr: str, replacement, item: bool = False) -> None:
        original = owner[attr] if item else getattr(owner, attr)
        self._patches.append((owner, attr, original, item))
        if item:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced call site; ``restore`` undoes it."""
        import signaltwin.cli as cli
        import signaltwin.controllers as controllers
        import signaltwin.metrics as metrics
        import signaltwin.signals as signals
        import signaltwin.traffic as traffic
        import signaltwin.twin as twin

        wrap = self.wrap
        for command in list(cli.COMMANDS):
            self._patch(cli.COMMANDS, command, wrap("cli.command", cli.COMMANDS[command]), item=True)
        self._patch(cli, "run_one_simulation", wrap("cli.run_one_simulation", cli.run_one_simulation))
        self._patch(
            cli, "read_trajectory",
            wrap("cli.read_trajectory", cli.read_trajectory,
                 after=lambda args, rows: self.count("cli.read_rows", len(rows))),
        )
        self._patch(metrics, "recompute_from_trajectory",
                    wrap("metrics.recompute", metrics.recompute_from_trajectory))
        self._patch(cli, "live_loop", wrap("twin.live_loop", cli.live_loop))

        sim_cls = traffic.Simulation
        self._patch(sim_cls, "__init__", wrap("traffic.init", sim_cls.__dict__["__init__"]))
        self._patch(sim_cls, "run_until", wrap("traffic.run_until", sim_cls.__dict__["run_until"]))
        self._patch(
            sim_cls, "step",
            wrap("traffic.step", sim_cls.__dict__["step"],
                 after=lambda args, _: self.count("traffic.vehicle_steps",
                                                  args[0].vehicles_on_network())),
        )
        timer_cls = signals.ControllerTimer
        self._patch(timer_cls, "tick", wrap("signals.tick", timer_cls.__dict__["tick"]))
        for token in list(controllers.DECIDE_BY_ALGORITHM):
            self._patch(controllers.DECIDE_BY_ALGORITHM, token,
                        wrap("controllers.decide", controllers.DECIDE_BY_ALGORITHM[token]),
                        item=True)
        self._patch(traffic, "shortest_path", wrap("network.shortest_path", traffic.shortest_path))
        self._patch(traffic, "generate_departures",
                    wrap("traffic.generate_departures", traffic.generate_departures))

        for fn_name in ("build_live_schedule", "estimate_demand", "forecast_demands",
                        "match_demand", "select_controller"):
            self._patch(twin, fn_name, wrap(f"twin.{fn_name}", getattr(twin, fn_name)))
        self._patch(twin, "run_parallel", self._wrap_run_parallel(twin.run_parallel))

        import multiprocessing.util as mp_util

        mp_util.register_after_fork(self, Tracer._after_fork)

    def restore(self) -> None:
        """Put every wrapped name back, in reverse order of patching."""
        while self._patches:
            owner, attr, original, item = self._patches.pop()
            if item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _wrap_run_parallel(self, fn: Callable) -> Callable:
        name_id = _NAME_ID["twin.run_parallel"]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            cpu0 = _children_cpu_s()
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            cpu = _children_cpu_s() - cpu0
            self.merge_worker_spans(parent=idx)
            self.run_parallel_calls.append({
                "wall_s": self.ends[idx] - self.starts[idx],
                "job_cpu_s": cpu,
                "parallelism": max(1, int(bound.arguments["parallelism"])),
            })
            self.count("twin.jobs", len(bound.arguments["jobs"]))
            return result

        return traced

    # -- worker processes ------------------------------------------------

    def _after_fork(self) -> None:
        if not self._patches:
            return  # restored before this fork: an untraced worker
        import multiprocessing.util as mp_util

        for arr in (self.names, self.starts, self.ends, self.parents):
            del arr[:]
        self.counts = {}
        self.run_parallel_calls = []
        self._stack = []
        mp_util.Finalize(self, self._spill, exitpriority=10)

    def _spill(self) -> None:
        path = self.spill_dir / f"worker-{os.getpid()}.npz"
        np.savez(
            path,
            names=np.frombuffer(self.names, dtype=np.int8),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            counts=np.array(json.dumps(self.counts)),
        )

    def merge_worker_spans(self, parent: int = -1) -> None:
        """Append the spans that exited workers wrote, under ``parent``."""
        for path in sorted(self.spill_dir.glob("worker-*.npz")):
            with np.load(path) as data:
                base = len(self.starts)
                parents = data["parents"].astype(np.int64)
                parents = np.where(parents < 0, parent, parents + base)
                self.names.extend(data["names"].tolist())
                self.starts.extend(data["starts"].tolist())
                self.ends.extend(data["ends"].tolist())
                self.parents.extend(parents.tolist())
                for key, n in json.loads(str(data["counts"])).items():
                    self.count(key, n)
            path.unlink()

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.frombuffer(self.names, dtype=np.int8).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write the spans and counts of this pass to ``path`` (npz)."""
        np.savez_compressed(
            path, span_names=np.array(SPAN_NAMES), counts=np.array(json.dumps(self.counts)),
            **self.arrays(),
        )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals, counts and self times from one traced pass."""
    a = tracer.arrays()
    names, parents = a["names"], a["parents"].astype(np.int64)
    dur = a["ends"] - a["starts"]
    has_parent = parents >= 0
    child_time = np.zeros(len(dur))
    np.add.at(child_time, parents[has_parent], dur[has_parent])
    self_time = dur - child_time
    n_names = len(SPAN_NAMES)
    total = np.bincount(names, weights=dur, minlength=n_names)
    self_total = np.bincount(names, weights=self_time, minlength=n_names)
    calls = np.bincount(names, minlength=n_names)

    def tot(name: str) -> float:
        return float(total[_NAME_ID[name]])

    def own(name: str) -> float:
        return float(self_total[_NAME_ID[name]])

    def n(name: str) -> int:
        return int(calls[_NAME_ID[name]])

    # Spans under a run_parallel call belong to twin jobs; the other spans
    # under live_loop belong to the twin's live simulation.  A parent span
    # always precedes its children.
    rp, live = _NAME_ID["twin.run_parallel"], _NAME_ID["twin.live_loop"]
    under_jobs = np.zeros(len(names), dtype=bool)
    under_live = np.zeros(len(names), dtype=bool)
    for i in range(len(names)):
        p = parents[i]
        if p >= 0:
            under_jobs[i] = names[p] == rp or under_jobs[p]
            under_live[i] = names[p] == live or under_live[p]
    live_step = (names == _NAME_ID["traffic.step"]) & under_live & ~under_jobs

    step_s, tick_s = tot("traffic.step"), tot("signals.tick")
    step_self_s = step_s - tick_s
    vehicle_steps = tracer.counts.get("traffic.vehicle_steps", 0)
    rp_cpu = float(sum(c["job_cpu_s"] for c in tracer.run_parallel_calls))
    rp_overhead = float(sum(
        c["wall_s"] - c["job_cpu_s"] / c["parallelism"] for c in tracer.run_parallel_calls
    ))
    return {
        "traffic.step_s": step_s,
        "traffic.steps": n("traffic.step"),
        "traffic.step_self_s": step_self_s,
        "traffic.vehicle_steps": vehicle_steps,
        "traffic.us_per_vehicle_step": step_self_s / vehicle_steps * 1e6 if vehicle_steps else 0.0,
        "cli.read_trajectory_s": tot("cli.read_trajectory"),
        "cli.read_rows": tracer.counts.get("cli.read_rows", 0),
        "metrics.recompute_s": tot("metrics.recompute"),
        "signals.tick_s": tick_s,
        "signals.ticks": n("signals.tick"),
        "controllers.decide_s": tot("controllers.decide"),
        "controllers.decisions": n("controllers.decide"),
        "traffic.init_s": tot("traffic.init"),
        "traffic.init_calls": n("traffic.init"),
        "network.shortest_path_s": tot("network.shortest_path"),
        "network.shortest_path_calls": n("network.shortest_path"),
        "traffic.generate_departures_s": tot("traffic.generate_departures"),
        "traffic.generate_departures_calls": n("traffic.generate_departures"),
        "cli.artifacts_s": own("cli.command") + own("cli.run_one_simulation"),
        "twin.run_parallel_s": tot("twin.run_parallel"),
        "twin.jobs": tracer.counts.get("twin.jobs", 0),
        "twin.job_cpu_s": rp_cpu,
        "twin.pool_overhead_s": rp_overhead,
        "twin.live_step_s": float(dur[live_step].sum()),
        "twin.select_s": tot("twin.match_demand") + tot("twin.select_controller"),
        "twin.period_latency_s": _period_latency(names, a["ends"], under_live & ~under_jobs),
    }


def _period_latency(names, ends, live) -> float:
    """Median over twin periods of the time from the live simulation
    reaching the evaluation time to the selection being made."""
    run_until, select = _NAME_ID["traffic.run_until"], _NAME_ID["twin.select_controller"]
    latencies = []
    reached = None
    for i in np.flatnonzero(((names == run_until) | (names == select)) & live):
        if names[i] == run_until:
            reached = ends[i]
        elif reached is not None:
            latencies.append(ends[i] - reached)
            reached = None
    return statistics.median(latencies) if latencies else 0.0
