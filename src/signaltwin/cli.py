"""Command-line entry points and artifact plumbing.

Subcommands: simulate | compare | twin | report.  Every run writes a
self-describing artifact directory (resolved config, network, departure
schedule, logs, summary), so identical config and seed regenerate every
artifact byte for byte.  Exit codes: 0 ok, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import heapq
import inspect
import itertools
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import metrics
from .checks import ConfigError, _checked, _hints, _is_finite, _typed
from .controllers import ALGORITHMS, validate_algorithm
from .network import Network, build_grid, load_network, save_network, shortest_path
from .traffic import (
    DEPARTURE_MODES,
    DepartureRow,
    Flow,
    SimClock,
    Simulation,
    SimulationResult,
    Vehicle,
    VehicleParams,
    _check_distinct_pairs,
    _check_seed,
    _check_vehicle_fits,
    departure_rows,
    scenario_catalog,
)
from .twin import (
    DemandPhase,
    TwinSettings,
    _subject_flows,
    check_demand_program,
    check_settings,
    live_loop,
)

SUMMARY_SCHEMA_VERSION = 1

TRAJECTORY_HEADER = "t,vehicle_id,segment_id,position,speed,waiting,accumulated_waiting\n"
_TRAJECTORY_COLUMNS = TRAJECTORY_HEADER.count(",") + 1
# The header line ends, as a row may, in "\n" or "\r\n".
_TRAJECTORY_HEADERS = (TRAJECTORY_HEADER.encode(), TRAJECTORY_HEADER[:-1].encode() + b"\r\n")
SIGNALS_HEADER = "t,intersection_id,phase,stage,green_elapsed\n"
DEPARTURES_HEADER = "vehicle_id,depart_time,origin,destination,route\n"

# The TwinSettings fields that only the top level of a config sets.
_TWIN_TOP_LEVEL = ("parallelism", "departure_mode")
# The keys of the twin section: the other TwinSettings fields and the
# demand program.
_TWIN_KEYS = {
    **{k: v for k, v in _hints(TwinSettings).items() if k not in _TWIN_TOP_LEVEL},
    "demand_program": list[dict],
}


def _default_network() -> dict:
    """A 3 x 3 grid, with ``build_grid``'s defaults for everything else."""
    grid = inspect.signature(build_grid).parameters.values()
    return {"rows": 3, "cols": 3, **{p.name: p.default for p in grid if p.default is not p.empty}}


@dataclass(frozen=True)
class RunConfig:
    """The settings of one command invocation, exactly as given."""

    network: dict = field(default_factory=_default_network)
    scenario: int | str | None = 1
    flows: list[dict] | None = None
    base_vph: float = 40.0
    ladder_factor: float = 0.25
    algorithms: tuple[str, ...] = ("baseline",)
    seed: int = 0
    dt: float = SimClock.dt
    horizon: float = SimClock.horizon
    warmup: float = SimClock.warmup
    cooldown: float = SimClock.cooldown
    departure_mode: str = TwinSettings.departure_mode
    carryover_turns: bool = True
    log_trajectory: bool = True
    parallelism: int = TwinSettings.parallelism
    vehicle: dict = field(default_factory=dict)
    out: str = "runs/out"
    twin: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        # Values stay as given (config.json records them); algorithms becomes a tuple.
        algorithms = _checked(data, cls).get("algorithms")
        return cls(**data) if algorithms is None else cls(**{**data, "algorithms": algorithms})

    def to_dict(self) -> dict:
        return {**asdict(self), "algorithms": list(self.algorithms)}


# -- resolving a config --------------------------------------------------------


@contextmanager
def _config_errors(prefix: str) -> Iterator[None]:
    """Raise what the block raises as a ConfigError whose message starts
    with ``prefix``, the section or field being resolved."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


@dataclass(frozen=True)
class _Resolved:
    """What a command runs, built from its config before anything is written."""

    config: RunConfig
    network: Network
    clock: SimClock
    vehicle: VehicleParams
    flows: tuple[Flow, ...] = ()
    scenario_id: int | None = None
    program: list[DemandPhase] | None = None  # twin only
    settings: TwinSettings | None = None  # twin only


def _resolve(config: RunConfig, command: str) -> _Resolved:
    """Everything ``command`` runs, resolved from ``config``; commands call
    this before they create any file, and every problem is a ConfigError."""
    with _config_errors("algorithms: "):
        for token in config.algorithms:
            validate_algorithm(token)
    if command == "simulate" and len(config.algorithms) != 1:
        raise ConfigError("simulate takes exactly one algorithm")
    if command == "compare" and (len(config.algorithms) < 2 or "baseline" not in config.algorithms):
        raise ConfigError("compare needs at least two algorithms, baseline among them")
    if config.departure_mode not in DEPARTURE_MODES:
        raise ConfigError(f"departure_mode {config.departure_mode!r} is not in {DEPARTURE_MODES}")
    times = {f.name: getattr(config, f.name) for f in fields(SimClock)}
    with _config_errors(""):
        _check_seed(config.seed)
        clock = SimClock(**_checked(times, SimClock))
    with _config_errors("vehicle: "):
        vehicle = VehicleParams(**_checked(config.vehicle, VehicleParams, "vehicle"))
    network = _resolve_network(config.network)
    with _config_errors("vehicle."):
        _check_vehicle_fits(network, vehicle)
    _check_out(config.out)
    # Every command checks the twin section and parallelism, so that a
    # config that twin refuses is refused by every command.
    for key in _TWIN_TOP_LEVEL:
        if key in config.twin:
            raise ConfigError(f"twin.{key}: unknown key; {key} is set at the top level only")
    twin = _checked(config.twin, _TWIN_KEYS, "twin")
    program_spec = twin.pop("demand_program", None)
    if config.parallelism < 1:
        raise ConfigError(f"parallelism must be an integer >= 1, got {config.parallelism}")
    with _config_errors("twin."):
        settings = TwinSettings(**twin, **{k: getattr(config, k) for k in _TWIN_TOP_LEVEL})
        check_settings(settings, clock, network)
    if command != "twin":
        if program_spec is not None:
            _resolve_demand_program(config, network, program_spec)  # checked, not run
        return _Resolved(config, network, clock, vehicle, *_resolve_flows(config, network))
    program = _resolve_demand_program(config, network, program_spec)
    return _Resolved(config, network, clock, vehicle, program=program, settings=settings)


def _check_out(out: str) -> None:
    """Raise a ConfigError, naming ``out``, unless it or its nearest
    existing ancestor is a directory, so that the run can make it one."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.is_symlink() or p.exists())
    if not existing.is_dir():
        raise ConfigError(f"out: {existing} is not a directory")


def _resolve_network(spec: dict) -> Network:
    if "file" in spec:
        path = _checked(spec, {"file": str}, "network")["file"]
        with _config_errors("network.file: "):
            return load_network(path)
    with _config_errors("network: "):
        return build_grid(**_checked({**_default_network(), **spec}, build_grid, "network"))


def _flows_from_dicts(rows: Sequence[dict], network: Network, where: str) -> tuple[Flow, ...]:
    """Flows parsed from JSON rows, each checked to run from a peripheral
    entry to a peripheral exit segment of ``network`` that a route reaches,
    no origin/destination pair twice.  Routes are memoised on the network,
    so the runs reuse the ones found here."""
    entries, exits = network.peripheral_entries(), network.peripheral_exits()
    flows = []
    for i, row in enumerate(rows):
        with _config_errors(f"{where}[{i}]: "):
            flow = Flow(**_checked(row, Flow, f"{where}[{i}]"))
        if flow.origin not in entries:
            raise ConfigError(
                f"{where}[{i}].origin: {flow.origin!r} is not a peripheral entry segment"
            )
        if flow.destination not in exits:
            raise ConfigError(
                f"{where}[{i}].destination: {flow.destination!r} is not a peripheral exit segment"
            )
        with _config_errors(f"{where}[{i}]: "):
            shortest_path(network, flow.origin, flow.destination)
        flows.append(flow)
    with _config_errors(""):
        _check_distinct_pairs(flows, where)
    return tuple(flows)


def _scenario_flows(config: RunConfig, network: Network, k: int, where: str) -> tuple[Flow, ...]:
    """The flows of demand scenario ``k`` (1..11) of the configured ladder."""
    if not 1 <= k <= 11:
        raise ConfigError(f"{where} must be 1..11, got {k}")
    with _config_errors(f"{where}: "):
        return scenario_catalog(
            config.base_vph, config.ladder_factor, network.straight_od_pairs()
        )[k - 1].flows


def _resolve_flows(config: RunConfig, network: Network) -> tuple[tuple[Flow, ...], int | None]:
    if config.flows is not None:
        return _flows_from_dicts(config.flows, network, "flows"), None
    if config.scenario is None:
        raise ConfigError("config needs either a scenario number, scenario file or explicit flows")
    if isinstance(config.scenario, str):
        return _load_scenario_file(config.scenario, network)
    return _scenario_flows(config, network, config.scenario, "scenario"), config.scenario


def _load_scenario_file(path: str, network: Network) -> tuple[tuple[Flow, ...], int | None]:
    with _config_errors(f"scenario file {path}: "):
        data = json.loads(Path(path).read_text())
    if isinstance(data, list):
        data = {"flows": data}
    data = _checked(data, {"scenario_id": int | None, "flows": list[dict]}, path)
    if "flows" not in data:
        raise ConfigError(f"scenario file {path} must be a flow list or an object with 'flows'")
    return _flows_from_dicts(data["flows"], network, f"{path}: flows"), data.get("scenario_id")


def _resolve_demand_program(
    config: RunConfig, network: Network, program_spec
) -> list[DemandPhase]:
    if program_spec is None:
        flows, _ = _resolve_flows(config, network)
        return [DemandPhase(0.0, flows)]
    phases = []
    for i, entry in enumerate(_typed(program_spec, list[dict], "twin.demand_program")):
        where = f"twin.demand_program[{i}]"
        entry = _checked(entry, {"start": float, "flows": list[dict], "scenario": int}, where)
        if "flows" in entry:
            flows = _flows_from_dicts(entry["flows"], network, f"{where}.flows")
        elif "scenario" in entry:
            flows = _scenario_flows(config, network, entry["scenario"], f"{where}.scenario")
        else:
            raise ConfigError(f"{where} needs 'flows' or 'scenario'")
        phases.append(DemandPhase(entry.get("start", 0.0), flows))
    with _config_errors("twin."):
        check_demand_program(phases)
    return phases


# -- artifact writers --------------------------------------------------------


def _delay_summary(window: Sequence[float], control: Sequence[float], stopped: dict) -> dict:
    """The fields that summary.json and report.json share, from the control
    delays and the per-movement stopped delays measured in ``window``."""
    mean, grade = metrics.control_delay_summary(control)
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "window": list(window),
        "measured_traversals": len(control),
        "mean_control_delay": mean,
        "los": grade.grade,
        "aasd": {m: metrics.aasd(v) for m, v in sorted(stopped.items())},
    }


def summary_dict(result: SimulationResult, network: Network) -> dict:
    stopped = {m: [v for _, v in rows] for m, rows in result.movement_stopped_delays.items()}
    return {
        **_delay_summary(result.window, result.control_delay_values(), stopped),
        "algorithm": result.algorithm,
        "seed": result.seed,
        "scenario_id": result.scenario_id,
        "subject_intersection": network.subject_intersection,
        "inserted": result.inserted,
        "exited": result.exited,
        "deferred_insertions": result.deferred_insertions,
        "mean_depart_delay": result.mean_depart_delay,
        "stopped_delay_skewness": metrics.sample_skewness([*itertools.chain(*stopped.values())]),
    }


def _write_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@contextmanager
def _run_directory(out_dir: Path, config: RunConfig) -> Iterator[Callable[[str], None] | None]:
    """Create a run directory and yield its trajectory sink (None when the
    log is off); the caller then writes the rest with ``_write_run_artifacts``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if not config.log_trajectory:
        yield None
        return
    with open(out_dir / "trajectory.csv", "w", newline="") as fh:
        fh.write(TRAJECTORY_HEADER)
        yield fh.write


class _Departure(NamedTuple):
    """The fields of a ``Vehicle`` that its run directory records, and
    that ``compare`` keeps of the rest's vehicles."""

    depart_time: float
    flow_index: int
    vid: str
    route: tuple[str, ...]


def _write_run_artifacts(
    out_dir: Path,
    config: RunConfig,
    network: Network,
    departures: Iterable[Vehicle | _Departure],
    signal_lines: Iterable[str],
    result: SimulationResult,
) -> None:
    """Write config, network, departures, signals and summary of a run."""
    _write_json(config.to_dict(), out_dir / "config.json")
    save_network(network, out_dir / "network.json")
    with open(out_dir / "departures.csv", "w", newline="") as fh:
        fh.write(DEPARTURES_HEADER)
        for veh in departures:
            route = veh.route
            fh.write(f"{veh.vid},{veh.depart_time!r},{route[0]},{route[-1]},{'|'.join(route)}\n")
    with open(out_dir / "signals.csv", "w", newline="") as fh:
        fh.write(SIGNALS_HEADER)
        fh.writelines(signal_lines)
    _write_json(summary_dict(result, network), out_dir / "summary.json")


class _Rest(NamedTuple):
    """What a command keeps of its one run of the flows outside the
    subject's slice: the departures, each flow's insertion times and the
    result, of which only the counts are read."""

    departures: list[_Departure]
    insertions: list[list[float]]
    result: SimulationResult


def _slice_and_rest(run: _Resolved) -> tuple[list[DepartureRow], _Rest | None]:
    """The departure rows of the subject's slice of ``run``'s flows, and
    the run of the rest.

    The rest never meets the slice or the subject's signal (see
    ``twin._subject_flows``), so it moves the same under every algorithm.
    A logged trajectory interleaves the two parts within each step, so
    then the slice is every flow and the rest is empty.  An empty rest is
    not run, and is None.  Rows keep their flow index, so vehicle ids are
    those of a run of every flow.
    """
    config = run.config
    rows = departure_rows(run.flows, run.clock.horizon, config.seed, config.departure_mode)
    if config.log_trajectory:
        return rows, None
    sliced = set(_subject_flows(run.network, [(f.origin, f.destination) for f in run.flows]))
    rest = [r for r in rows if r[1] not in sliced]
    rows = [r for r in rows if r[1] in sliced]
    if not rest:
        return rows, None
    sim = Simulation(
        run.network, schedule=rest, seed=config.seed,
        clock=run.clock, vehicle=run.vehicle, carryover_turns=config.carryover_turns,
    )
    del rest  # frees the rest's rows before its run
    result = sim.run()
    departures = [
        _Departure(v.depart_time, v.flow_index, v.vid, v.route) for v in sim.departure_schedule
    ]
    return rows, _Rest(departures, sim.flow_insertions, result)


def run_one_simulation(
    run: _Resolved, algorithm: str, rows: list[DepartureRow], rest: _Rest | None, out_dir: Path
) -> SimulationResult:
    """Run ``algorithm`` on the slice's departure ``rows``, and write its
    run directory as a run of every flow writes it, adding ``rest``.
    ``simulate`` calls this once and ``compare`` once per algorithm, with
    the rows and rest of ``_slice_and_rest``."""
    config = run.config
    with _run_directory(out_dir, config) as sink:
        sim = Simulation(
            run.network, schedule=rows, algorithm=algorithm, seed=config.seed,
            clock=run.clock, vehicle=run.vehicle, carryover_turns=config.carryover_turns,
            scenario_id=run.scenario_id, trajectory_sink=sink,
        )
        sim.run()
    departures, result = _with_rest(sim, rest)
    config = replace(config, algorithms=(algorithm,))
    _write_run_artifacts(out_dir, config, run.network, departures, sim.signal_lines(), result)
    return result


def _with_rest(
    sim: Simulation, rest: _Rest | None
) -> tuple[list[Vehicle | _Departure], SimulationResult]:
    """The departures and result of a run of every flow, from ``sim``, a
    finished run of the slice, and ``rest``.

    The mean departure delay is summed again in the order that the run of
    every flow inserts: by step, then by origin in the order of its first
    departure, then in its queue's order, which is departure order.  Each
    flow departs from one origin and inserts in departure order, so its
    n-th insertion time belongs to its n-th departure.  With no rest,
    the slice is every flow and its run is the run of every flow.
    """
    if rest is None:
        return sim.departure_schedule, sim.result()
    departures = list(heapq.merge(
        sim.departure_schedule, rest.departures, key=lambda v: (v.depart_time, v.flow_index)
    ))
    # Each flow's insertion times, from whichever run ran it.
    pending = [iter(ours or theirs) for ours, theirs in itertools.zip_longest(
        sim.flow_insertions, rest.insertions, fillvalue=[]
    )]
    origin_rank: dict[str, int] = {}
    delays = []
    for pos, veh in enumerate(departures):
        rank = origin_rank.setdefault(veh.route[0], len(origin_rank))
        if (t := next(pending[veh.flow_index], None)) is not None:
            delays.append((t, rank, pos, t - veh.depart_time))
    delay_sum = 0.0
    for *_, delay in sorted(delays):
        delay_sum += delay
    ours, theirs = sim.result(), rest.result
    inserted = ours.inserted + theirs.inserted
    return departures, replace(
        ours,
        inserted=inserted,
        exited=ours.exited + theirs.exited,
        deferred_insertions=ours.deferred_insertions + theirs.deferred_insertions,
        mean_depart_delay=delay_sum / inserted if inserted else 0.0,
    )


# -- subcommands ----------------------------------------------------------------


def cmd_simulate(config: RunConfig) -> int:
    run = _resolve(config, "simulate")
    algorithm = config.algorithms[0]
    out_dir = Path(config.out)
    rows, rest = _slice_and_rest(run)
    result = run_one_simulation(run, algorithm, rows, rest, out_dir)
    mean, grade = metrics.control_delay_summary(result.control_delay_values())
    print(
        f"simulate: algorithm={algorithm} scenario={run.scenario_id} seed={config.seed} "
        f"mean_control_delay={mean:.2f}s los={grade.grade} -> {out_dir}"
    )
    return 0


def cmd_compare(config: RunConfig) -> int:
    run = _resolve(config, "compare")
    out_dir = Path(config.out)
    rows, rest = _slice_and_rest(run)
    results = {t: run_one_simulation(run, t, rows, rest, out_dir / t) for t in config.algorithms}
    report = metrics.compare(results)
    metrics.write_comparison_csv(report, out_dir / "comparison.csv")
    metrics.write_comparison_json(report, out_dir / "comparison.json")
    metrics.write_dsd_csvs(report, out_dir)
    for token in report.algorithms:
        reduction = report.reduction_pct[token]
        note = "" if reduction is None else f" ({reduction:+.1f}% vs baseline)"
        print(
            f"compare: {token} mean_control_delay={report.mean_control_delay[token]:.2f}s "
            f"los={report.los[token]}{note}"
        )
    return 0


def cmd_twin(config: RunConfig) -> int:
    run = _resolve(config, "twin")
    out_dir = Path(config.out)
    with _run_directory(out_dir, config) as sink:
        manifest, result, sim = live_loop(
            run.network,
            run.program,
            run.settings,
            seed=config.seed,
            clock=run.clock,
            vehicle=run.vehicle,
            carryover_turns=config.carryover_turns,
            trajectory_sink=sink,
        )
    _write_run_artifacts(out_dir, config, run.network, sim.departure_schedule,
                         sim.signal_lines(), result)
    _write_json(manifest, out_dir / "twin_manifest.json")
    failed = sum(1 for p in manifest["periods"] for job in p["jobs"] if job["error"])
    if failed:
        print(f"twin: warning: {failed} failed job(s), see their error in twin_manifest.json",
              file=sys.stderr)
    degraded = sum(1 for p in manifest["periods"] if p["degraded"])
    if degraded:
        print(f"twin: warning: {degraded} degraded period(s), controller kept", file=sys.stderr)
    print(
        f"twin: periods={len(manifest['periods'])} swaps={len(manifest['swap_events'])} "
        f"final={manifest['live_summary']['final_algorithm']} -> {out_dir}"
    )
    return 0


def cmd_report(config: RunConfig) -> int:
    run_dir = Path(config.out)
    traj_path = run_dir / "trajectory.csv"
    summary_path = run_dir / "summary.json"
    config_path = run_dir / "config.json"
    network_path = run_dir / "network.json"
    if not all(p.exists() for p in (traj_path, summary_path, config_path, network_path)):
        raise ConfigError(
            f"{run_dir} is not a run directory with trajectory.csv, summary.json, "
            "config.json and network.json"
        )
    with _config_errors(f"{network_path}: "):
        network = load_network(network_path)
    window = _run_json(summary_path).get("window")
    if not (isinstance(window, list) and len(window) == 2 and all(map(_is_finite, window))
            and window[0] <= window[1]):
        raise ConfigError(f"{summary_path}: field 'window' must be finite [start, end] with "
                          f"start <= end, got {window!r}")
    window = tuple(window)
    dt = _run_json(config_path).get("dt")
    if not (_is_finite(dt) and dt > 0.0):
        raise ConfigError(f"{config_path}: field 'dt' must be a positive finite number, got {dt!r}")
    try:
        control, stopped = metrics.recompute_from_trajectory(
            _trajectory_rows(traj_path), network, window, float(dt)
        )
    except metrics.TrajectoryRowError as exc:
        line = _bad_row_line(traj_path, network, window, float(dt))
        raise ConfigError(f"{traj_path} line {line}: {exc}") from None
    report = {**_delay_summary(window, control, stopped), "source": "trajectory.csv"}
    _write_json(report, run_dir / "report.json")
    print(
        f"report: recomputed mean_control_delay={report['mean_control_delay']:.2f}s "
        f"los={report['los']} traversals={len(control)} -> {run_dir / 'report.json'}"
    )
    return 0


def _run_json(path: Path) -> dict:
    with _config_errors(f"{path} is not valid JSON: "):
        data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def _trajectory_rows(path: Path) -> Iterator[list[bytes]]:
    """The data rows of a trajectory log as split, unconverted bytes fields.

    Checks the header, and that each row is UTF-8 text of seven columns;
    the header and each row end in ``\n`` or ``\r\n``.  A row's last
    field keeps its line end, which ``float`` ignores.  Rows are split a
    block of lines at a time; 8 KiB blocks (about 200 rows) keep each
    block's lists below the garbage collector's youngest-generation
    threshold, which measured faster than both per-line splitting and
    64 KiB blocks.  Splitting bytes, not decoded text, measured faster
    still; only a block that is not plain ASCII, holds a carriage return
    or has a row of the wrong width is looked at line by line.
    """
    return itertools.chain.from_iterable(_trajectory_blocks(path))


def _trajectory_blocks(path: Path) -> Iterator[list[list[bytes]]]:
    with open(path, "rb") as fh:
        header = fh.readline()
        if header not in _TRAJECTORY_HEADERS:
            raise ConfigError(
                f"{path} line 1: header must be {TRAJECTORY_HEADER!r}, "
                f"got {header.decode(errors='backslashreplace')!r}"
            )
        lineno = 2
        while lines := fh.readlines(1 << 13):
            rows = [line.split(b",") for line in lines]
            block = b"".join(lines)
            if (set(map(len, rows)) != {_TRAJECTORY_COLUMNS}
                    or not block.isascii() or b"\r" in block):
                for i, line in enumerate(lines):
                    if problem := _line_problem(line, len(rows[i])):
                        raise ConfigError(f"{path} line {lineno + i}: {problem}")
            yield rows
            lineno += len(rows)


def _line_problem(line: bytes, n_fields: int) -> str | None:
    """Why ``report`` cannot read a data line of ``n_fields`` fields, if it cannot."""
    try:
        line.decode()
    except UnicodeDecodeError as exc:
        return f"byte {exc.start + 1} is not UTF-8 text ({exc.reason})"
    expected = f"expected {_TRAJECTORY_COLUMNS} columns ({TRAJECTORY_HEADER.strip()})"
    if b"\r" in line.removesuffix(b"\n").removesuffix(b"\r"):
        return f"{expected}, got a carriage return inside the row"
    if n_fields != _TRAJECTORY_COLUMNS:
        return f"{expected}, got {n_fields}"
    return None


def _bad_row_line(path: Path, network: Network, window: tuple[float, float], dt: float) -> int:
    """The line of the row that recomputation refused in ``path``.  Rows here
    carry their line number as an extra last field, which recomputation
    never reads; it is a pure function of its rows, so it fails again at
    the same row, and every row before that passed the reader's checks."""
    numbered = (row + [n] for n, row in enumerate(_trajectory_rows(path), 2))
    try:
        metrics.recompute_from_trajectory(numbered, network, window, dt)
    except metrics.TrajectoryRowError as exc:
        return exc.row[-1]


def read_trajectory(path: str | Path) -> list[tuple[float, str, str, float, float, float, float]]:
    """Every row of a trajectory log, with the numeric fields as floats."""
    return [
        (float(r[0]), r[1].decode(), r[2].decode(),
         float(r[3]), float(r[4]), float(r[5]), float(r[6]))
        for r in _trajectory_rows(Path(path))
    ]


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signaltwin",
        description="Deterministic grid-traffic simulation with adaptive signal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one (scenario, algorithm) simulation"),
        ("compare", "run several algorithms on identical demand and compare"),
        ("twin", "run the live loop with periodic parallel re-selection"),
        ("report", "recompute summary metrics from a run's trajectory log"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--out", type=str, help="output directory")
        p.add_argument(
            "--algorithm",
            dest="algorithms",
            type=lambda tokens: [t.strip() for t in tokens.split(",") if t.strip()],
            help=f"algorithm token(s), comma separated; valid: {', '.join(ALGORITHMS)}",
        )
        p.add_argument("--scenario", type=int, help="demand scenario 1..11")
        p.add_argument("--parallelism", type=int, help="worker processes for twin jobs")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    flags = {
        k: v for k, v in vars(args).items() if k not in ("command", "config") and v is not None
    }
    if args.config is None:
        return RunConfig.from_dict(flags)
    with _config_errors(f"config file {args.config}: "):
        return RunConfig.from_dict({**json.loads(Path(args.config).read_text()), **flags})


COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "twin": cmd_twin,
    "report": cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
