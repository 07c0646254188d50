"""Command-line entry points and artifact plumbing.

Subcommands: simulate | compare | twin | report.  Every run writes a
self-describing artifact directory (resolved config, network, departure
schedule, logs, summary), so identical config and seed regenerate every
artifact byte for byte.  Exit codes: 0 ok, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import metrics
from .controllers import ALGORITHMS, validate_algorithm
from .network import Network, build_grid, load_network, save_network
from .traffic import (
    Flow,
    SimClock,
    Simulation,
    SimulationResult,
    VehicleParams,
    scenario_catalog,
)
from .twin import DemandPhase, TwinSettings, check_demand_program, live_loop

SUMMARY_SCHEMA_VERSION = 1

TRAJECTORY_HEADER = "t,vehicle_id,segment_id,position,speed,waiting,accumulated_waiting\n"
SIGNALS_HEADER = "t,intersection_id,phase,stage,green_elapsed\n"
DEPARTURES_HEADER = "vehicle_id,depart_time,origin,destination,route\n"


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    network: dict = field(default_factory=lambda: {
        "rows": 3, "cols": 3, "segment_length": 650.0, "lane_count": 2,
        "pocket_length": 80.0, "free_flow_speed": 13.89,
    })
    scenario: int | str | None = 1
    flows: list[dict] | None = None
    base_vph: float = 40.0
    ladder_factor: float = 0.25
    algorithms: tuple[str, ...] = ("baseline",)
    seed: int = 0
    dt: float = 1.0
    horizon: float = 3600.0
    warmup: float = 600.0
    cooldown: float = 600.0
    departure_mode: str = "poisson"
    carryover_turns: bool = True
    log_trajectory: bool = True
    parallelism: int = 1
    vehicle: dict = field(default_factory=dict)
    out: str = "runs/out"
    twin: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)} - {"algorithm"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "algorithm" in data:
            token = data.pop("algorithm")
            data["algorithms"] = token if isinstance(token, list) else [token]
        if "algorithms" in data:
            data["algorithms"] = tuple(data["algorithms"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        return {**asdict(self), "algorithms": list(self.algorithms)}


def _build_network(config: RunConfig) -> Network:
    net_cfg = config.network
    if "file" in net_cfg:
        return load_network(net_cfg["file"])
    try:
        return build_grid(
            rows=int(net_cfg.get("rows", 3)),
            cols=int(net_cfg.get("cols", 3)),
            segment_length=float(net_cfg.get("segment_length", 650.0)),
            lane_count=int(net_cfg.get("lane_count", 2)),
            pocket_length=float(net_cfg.get("pocket_length", 80.0)),
            free_flow_speed=float(net_cfg.get("free_flow_speed", 13.89)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid network settings: {exc}") from None


def _flows_from_dicts(rows: Sequence[dict], network: Network, where: str) -> tuple[Flow, ...]:
    """Flows parsed from JSON rows, each checked to run from a peripheral
    entry to a peripheral exit segment of ``network``."""
    entries, exits = network.peripheral_entries(), network.peripheral_exits()
    flows = []
    for i, row in enumerate(rows):
        try:
            flow = Flow(
                origin=row["origin"],
                destination=row["destination"],
                vph=float(row["vph"]),
                depart_speed=float(row.get("depart_speed", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid flow entry {where}[{i}]: {exc}") from None
        if flow.origin not in entries:
            raise ConfigError(
                f"{where}[{i}].origin: {flow.origin!r} is not a peripheral entry segment"
            )
        if flow.destination not in exits:
            raise ConfigError(
                f"{where}[{i}].destination: {flow.destination!r} is not a peripheral exit segment"
            )
        flows.append(flow)
    return tuple(flows)


def _scenario_flows(config: RunConfig, network: Network, k: int, where: str) -> tuple[Flow, ...]:
    """The flows of demand scenario ``k`` (1..11) of the configured ladder."""
    if not 1 <= k <= 11:
        raise ConfigError(f"{where} must be 1..11, got {k}")
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
    k = int(config.scenario)
    return _scenario_flows(config, network, k, "scenario"), k


def _load_scenario_file(path: str, network: Network) -> tuple[tuple[Flow, ...], int | None]:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}") from None
    if isinstance(data, list):
        return _flows_from_dicts(data, network, f"{path}: flows"), None
    if isinstance(data, dict) and "flows" in data:
        scenario_id = data.get("scenario_id")
        return _flows_from_dicts(data["flows"], network, f"{path}: flows"), scenario_id
    raise ConfigError(
        f"scenario file {path} must be a flow list or an object with a 'flows' key"
    )


def _clock(config: RunConfig) -> SimClock:
    try:
        return SimClock(
            dt=config.dt, horizon=config.horizon,
            warmup=config.warmup, cooldown=config.cooldown,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _vehicle_params(config: RunConfig) -> VehicleParams:
    try:
        return VehicleParams(**config.vehicle)
    except TypeError as exc:
        raise ConfigError(f"invalid vehicle params: {exc}") from None


# -- artifact writers --------------------------------------------------------


def summary_dict(result: SimulationResult, network: Network) -> dict:
    mean, grade = metrics.control_delay_summary(result.control_delay_values())
    pooled = [
        v
        for movement in result.movement_stopped_delays
        for _, v in result.movement_stopped_delays[movement]
    ]
    return {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "algorithm": result.algorithm,
        "seed": result.seed,
        "scenario_id": result.scenario_id,
        "window": list(result.window),
        "subject_intersection": network.subject_intersection,
        "inserted": result.inserted,
        "exited": result.exited,
        "deferred_insertions": result.deferred_insertions,
        "mean_depart_delay": result.mean_depart_delay,
        "measured_traversals": result.measured_traversals,
        "mean_control_delay": mean,
        "los": grade.grade,
        "aasd": {
            movement: metrics.aasd(result.movement_delay_values(movement))
            for movement in sorted(result.movement_stopped_delays)
        },
        "stopped_delay_skewness": metrics.sample_skewness(pooled),
    }


def _write_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@contextmanager
def _run_directory(
    out_dir: Path, config: RunConfig, network: Network
) -> Iterator[Callable[[str], None] | None]:
    """Create a run directory and yield its trajectory sink (None when the
    log is off); the caller then writes the rest with ``_write_run_artifacts``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if not config.log_trajectory:
        yield None
        return
    with open(out_dir / "trajectory.csv", "w", newline="") as fh:
        fh.write(TRAJECTORY_HEADER)
        yield fh.write


def _write_run_artifacts(
    out_dir: Path, config: RunConfig, network: Network, sim: Simulation, result: SimulationResult
) -> None:
    """Write config, network, departures, signals and summary of a run."""
    _write_json(config.to_dict(), out_dir / "config.json")
    save_network(network, out_dir / "network.json")
    with open(out_dir / "departures.csv", "w", newline="") as fh:
        fh.write(DEPARTURES_HEADER)
        for vid, time, origin, destination, route in sim.departure_schedule:
            fh.write(f"{vid},{time!r},{origin},{destination},{'|'.join(route)}\n")
    with open(out_dir / "signals.csv", "w", newline="") as fh:
        fh.write(SIGNALS_HEADER)
        for t, node, phase, stage, green in sim.signal_log:
            fh.write(f"{t!r},{node},{phase},{stage},{green!r}\n")
    _write_json(summary_dict(result, network), out_dir / "summary.json")


def run_one_simulation(
    config: RunConfig,
    network: Network,
    flows: tuple[Flow, ...],
    scenario_id: int | None,
    algorithm: str,
    out_dir: Path,
) -> SimulationResult:
    """Execute one run and populate its artifact directory."""
    with _run_directory(out_dir, config, network) as sink:
        sim = Simulation(
            network,
            flows=flows,
            algorithm=algorithm,
            seed=config.seed,
            clock=_clock(config),
            vehicle=_vehicle_params(config),
            departure_mode=config.departure_mode,
            carryover_turns=config.carryover_turns,
            scenario_id=scenario_id,
            trajectory_sink=sink,
        )
        result = sim.run()
    _write_run_artifacts(out_dir, replace(config, algorithms=(algorithm,)), network, sim, result)
    return result


# -- subcommands ----------------------------------------------------------------


def cmd_simulate(config: RunConfig) -> int:
    if len(config.algorithms) != 1:
        raise ConfigError("simulate takes exactly one algorithm")
    algorithm = _validated(config.algorithms[0])
    network = _build_network(config)
    flows, scenario_id = _resolve_flows(config, network)
    out_dir = Path(config.out)
    result = run_one_simulation(config, network, flows, scenario_id, algorithm, out_dir)
    mean, grade = metrics.control_delay_summary(result.control_delay_values())
    print(
        f"simulate: algorithm={algorithm} scenario={scenario_id} seed={config.seed} "
        f"mean_control_delay={mean:.2f}s los={grade.grade} -> {out_dir}"
    )
    return 0


def cmd_compare(config: RunConfig) -> int:
    tokens = [_validated(t) for t in config.algorithms]
    if len(tokens) < 2:
        raise ConfigError("compare needs at least two algorithms (including baseline)")
    if "baseline" not in tokens:
        raise ConfigError("compare requires the baseline algorithm")
    network = _build_network(config)
    flows, scenario_id = _resolve_flows(config, network)
    out_dir = Path(config.out)
    results: dict[str, SimulationResult] = {}
    for token in tokens:
        results[token] = run_one_simulation(
            config, network, flows, scenario_id, token, out_dir / token
        )
    report = metrics.compare(results)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    network = _build_network(config)
    twin_cfg = dict(config.twin)
    program_spec = twin_cfg.pop("demand_program", None)
    unknown = set(twin_cfg) - {f.name for f in fields(TwinSettings)}
    if unknown:
        raise ConfigError(f"unknown twin config keys: {sorted(unknown)}")
    if "factors" in twin_cfg:
        twin_cfg["factors"] = tuple(twin_cfg["factors"])
    twin_cfg.setdefault("parallelism", config.parallelism)
    twin_cfg.setdefault("departure_mode", config.departure_mode)
    try:
        settings = TwinSettings(**twin_cfg)
        _validated(settings.initial_algorithm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    program = _resolve_demand_program(config, network, program_spec)
    out_dir = Path(config.out)
    with _run_directory(out_dir, config, network) as sink:
        manifest, result, sim = live_loop(
            network,
            program,
            settings,
            seed=config.seed,
            clock=_clock(config),
            vehicle=_vehicle_params(config),
            carryover_turns=config.carryover_turns,
            trajectory_sink=sink,
        )
    _write_run_artifacts(out_dir, config, network, sim, result)
    _write_json(manifest, out_dir / "twin_manifest.json")
    degraded = sum(1 for p in manifest["periods"] if p["degraded"])
    if degraded:
        print(f"twin: warning: {degraded} degraded period(s), controller kept", file=sys.stderr)
    print(
        f"twin: periods={len(manifest['periods'])} swaps={len(manifest['swap_events'])} "
        f"final={manifest['live_summary']['final_algorithm']} -> {out_dir}"
    )
    return 0


def _resolve_demand_program(
    config: RunConfig, network: Network, program_spec
) -> list[DemandPhase]:
    if program_spec is None:
        flows, _ = _resolve_flows(config, network)
        return [DemandPhase(0.0, flows)]
    if not isinstance(program_spec, list):
        raise ConfigError("twin.demand_program must be a list of phases")
    phases = []
    for i, entry in enumerate(program_spec):
        where = f"twin.demand_program[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object with 'start' and 'flows' or 'scenario'")
        start = entry.get("start", 0.0)
        if not (_is_number(start) and math.isfinite(start)):
            raise ConfigError(f"{where}.start must be a finite number, got {start!r}")
        if "flows" in entry:
            flows = _flows_from_dicts(entry["flows"], network, f"{where}.flows")
        elif "scenario" in entry:
            flows = _scenario_flows(config, network, int(entry["scenario"]), f"{where}.scenario")
        else:
            raise ConfigError(f"{where} needs 'flows' or 'scenario'")
        phases.append(DemandPhase(float(start), flows))
    try:
        check_demand_program(phases)
    except ValueError as exc:
        raise ConfigError(f"twin.{exc}") from None
    return phases


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
    try:
        network = load_network(network_path)
    except ValueError as exc:
        raise ConfigError(f"{network_path}: {exc}") from None
    window = _run_json(summary_path).get("window")
    if not (isinstance(window, list) and len(window) == 2 and all(map(_is_number, window))):
        raise ConfigError(f"{summary_path}: field 'window' must be [start, end], got {window!r}")
    window = tuple(window)
    dt = _run_json(config_path).get("dt")
    if not (_is_number(dt) and dt > 0.0):
        raise ConfigError(f"{config_path}: field 'dt' must be a positive number, got {dt!r}")
    try:
        control, movement_delays = metrics.recompute_from_trajectory(
            _trajectory_rows(traj_path), network, window, float(dt)
        )
    except metrics.TrajectoryRowError as exc:
        line = _line_of(traj_path, exc.row)
        raise ConfigError(f"{traj_path} line {line}: {exc}") from None
    mean, grade = metrics.control_delay_summary(control)
    report = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "source": "trajectory.csv",
        "window": list(window),
        "measured_traversals": len(control),
        "mean_control_delay": mean,
        "los": grade.grade,
        "aasd": {m: metrics.aasd(v) for m, v in sorted(movement_delays.items())},
    }
    _write_json(report, run_dir / "report.json")
    print(
        f"report: recomputed mean_control_delay={mean:.2f}s los={grade.grade} "
        f"traversals={len(control)} -> {run_dir / 'report.json'}"
    )
    return 0


def _run_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _trajectory_rows(path: Path) -> Iterator[list[str]]:
    """The data rows of a trajectory log as split, unconverted fields.

    Checks the header and each row's column count; the last field keeps
    its line break, which ``float`` ignores.  Rows are split a block of
    lines at a time; 8 KiB blocks (about 150 rows) keep each block's lists
    below the garbage collector's youngest-generation threshold, which
    measured faster than both per-line splitting and 64 KiB blocks.
    """
    return itertools.chain.from_iterable(_trajectory_blocks(path))


def _trajectory_blocks(path: Path) -> Iterator[list[list[str]]]:
    columns = TRAJECTORY_HEADER.strip().split(",")
    with open(path, newline="") as fh:
        header = fh.readline()
        if header != TRAJECTORY_HEADER:
            raise ConfigError(
                f"{path} line 1: header must be {TRAJECTORY_HEADER.strip()!r}, "
                f"got {header.strip()!r}"
            )
        lineno = 2
        while lines := fh.readlines(1 << 13):
            rows = [line.split(",") for line in lines]
            if set(map(len, rows)) != {len(columns)}:
                bad = next(i for i, row in enumerate(rows) if len(row) != len(columns))
                raise ConfigError(
                    f"{path} line {lineno + bad}: expected {len(columns)} columns "
                    f"({','.join(columns)}), got {len(rows[bad])}"
                )
            yield rows
            lineno += len(rows)


def _line_of(path: Path, row: Sequence) -> int | None:
    """Line number of the first line of ``path`` that splits into ``row``."""
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.split(",") == row:
                return lineno
    return None


def read_trajectory(path: str | Path) -> list[tuple[float, str, str, float, float, float, float]]:
    """Every row of a trajectory log, with the numeric fields as floats."""
    return [
        (float(r[0]), r[1], r[2], float(r[3]), float(r[4]), float(r[5]), float(r[6]))
        for r in _trajectory_rows(Path(path))
    ]


def _validated(token: str) -> str:
    try:
        return validate_algorithm(token)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
            type=str,
            help=f"algorithm token(s), comma separated; valid: {', '.join(ALGORITHMS)}",
        )
        p.add_argument("--scenario", type=int, help="demand scenario 1..11")
        p.add_argument("--parallelism", type=int, help="worker processes for twin jobs")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out"] = args.out
    if args.algorithm is not None:
        data["algorithms"] = [t.strip() for t in args.algorithm.split(",") if t.strip()]
    if args.scenario is not None:
        data["scenario"] = args.scenario
    if args.parallelism is not None:
        data["parallelism"] = args.parallelism
    return RunConfig.from_dict(data)


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
