"""Candidate-demand forecasting, parallel evaluation and live selection.

On a fixed cadence the live simulation's recent demand is estimated,
scaled into a small set of candidate forecasts, and every candidate is
simulated once per control algorithm in mutually independent, seeded
jobs.  The candidate closest to the measured demand decides which job
scores count, and the best-scoring algorithm becomes the live controller
at the next green-stage decision point.  Everything is reproducible from
(network, demand program, settings, seed).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .controllers import ALGORITHMS, validate_algorithm
from .metrics import los_from_control_delay
from .network import Network, NetworkError, UnknownIdError, shortest_path
from .signals import _exact_steps
from .traffic import (
    DEPARTURE_MODES,
    DepartureRow,
    Flow,
    SimClock,
    Simulation,
    SimulationResult,
    VehicleParams,
    _check_distinct_pairs,
    _require_finite,
    departure_rows,
    label_seed,
)

if TYPE_CHECKING:
    from concurrent.futures import Executor

def default_dimensions() -> dict[str, str]:
    """The nine descriptive dimensions recorded in every run manifest:
    physical entities, digital shadow, data, models, simulation, traffic
    demand prediction, control algorithms, applications, and the
    communication gateway."""
    return {
        "PE": "live road network state owned by signaltwin.traffic.Simulation",
        "DS": "per-step vehicle and signal state mirrored into logs and the demand estimator",
        "DD": "run artifacts: departures.csv, trajectory.csv, signals.csv, summary.json",
        "MO": "signaltwin.traffic safe-speed vehicle dynamics and demand models",
        "SI": "signaltwin.twin.run_parallel candidate simulations",
        "TP": "signaltwin.twin.forecast_demands scaling-factor demand forecaster",
        "CA": "signaltwin.signals.ControllerTimer nine-phase machine",
        "AP": "signaltwin.controllers algorithms: baseline, dt1, dt2",
        "CG": "signaltwin.cli commands and JSON/CSV file interfaces",
    }


@dataclass(frozen=True)
class DemandEstimate:
    """Measured per-flow demand over a trailing window."""

    window_length: float
    vph: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_finite(self, ("window_length",))
        if self.window_length <= 0.0:
            raise ValueError("window_length must be positive")
        if not all(math.isfinite(v) and v >= 0.0 for v in self.vph):
            raise ValueError(f"vph must be finite and >= 0, got {self.vph}")


@dataclass(frozen=True)
class SimulationJob:
    """One independent (demand candidate, algorithm) evaluation.

    ``live_loop`` gives a job only the flows of the subject's slice
    (``_subject_flows``) at the candidate's rates: the job's score and its
    control and stopped delays equal those of a job run on every flow,
    while its ``inserted``, ``exited``, ``deferred_insertions`` and
    ``mean_depart_delay`` count only the flows it runs.
    """

    job_id: str
    flows: tuple[Flow, ...]
    algorithm: str
    seed: int
    clock: SimClock
    candidate_index: int | None = None
    departure_mode: str = "poisson"


@dataclass(frozen=True)
class TwinSelection:
    """Ranked outcomes for the matched demand and the chosen algorithm."""

    scored: tuple[tuple[str, str, float, str], ...]  # job_id, algorithm, score, los
    chosen_algorithm: str
    matched_demand: int


@dataclass(frozen=True)
class DemandPhase:
    """Demand level active from ``start`` until the next phase begins."""

    start: float
    flows: tuple[Flow, ...]


@dataclass(frozen=True)
class TwinSettings:
    factors: tuple[float, ...] = (0.8, 1.0, 1.2)
    period: float = 300.0
    job_horizon: float = 900.0
    job_warmup: float = 300.0
    job_cooldown: float = 0.0
    estimate_window: float = 300.0
    initial_algorithm: str = "baseline"
    parallelism: int = 1
    departure_mode: str = "poisson"

    def __post_init__(self) -> None:
        if not self.factors or not all(math.isfinite(f) and f > 0.0 for f in self.factors):
            raise ValueError(
                f"factors must be a nonempty list of positive finite scalars, got {self.factors}"
            )
        _require_finite(
            self, ("period", "job_horizon", "job_warmup", "job_cooldown", "estimate_window")
        )
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if not isinstance(self.parallelism, int) or self.parallelism < 1:
            raise ValueError(f"parallelism must be an integer >= 1, got {self.parallelism!r}")
        if self.estimate_window <= 0.0:
            raise ValueError(f"estimate_window must be positive, got {self.estimate_window}")
        if self.departure_mode not in DEPARTURE_MODES:
            raise ValueError(
                f"departure_mode must be one of {DEPARTURE_MODES}, got {self.departure_mode!r}"
            )
        if self.job_horizon <= 0.0:
            raise ValueError(f"job_horizon must be positive, got {self.job_horizon}")
        for name in ("job_warmup", "job_cooldown"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.job_warmup + self.job_cooldown > self.job_horizon:
            raise ValueError(
                f"job_warmup ({self.job_warmup}) + job_cooldown ({self.job_cooldown}) "
                f"must not exceed job_horizon ({self.job_horizon})"
            )
        try:
            validate_algorithm(self.initial_algorithm)
        except ValueError as exc:
            raise ValueError(f"initial_algorithm: {exc}") from None


def check_settings(settings: TwinSettings, clock: SimClock, network: Network) -> SimClock:
    """The clock of every job, at the live ``clock``'s step.  Raises
    ValueError, naming the field, if a job time or ``period`` is off the
    step grid or the bound on a candidate's vph is not finite."""
    # TwinSettings has checked the signs and the order of the job times, so
    # only a time off the step grid fails here, in a message led by its field.
    try:
        job_clock = SimClock(
            clock.dt, settings.job_horizon, settings.job_warmup, settings.job_cooldown
        )
    except ValueError as exc:
        raise ValueError(f"job_{exc}") from None
    _exact_steps(settings.period, clock.dt, "period")
    # A measured rate is at most lane_count insertions per step at its
    # origin, so this bounds the vph of every candidate demand.
    top = max(settings.factors)
    lanes = max(seg.lane_count for seg in network.segments.values())
    if not math.isfinite(top * lanes * 3600.0 / clock.dt):
        raise ValueError(
            f"factors: {top} x {lanes} lanes x 3600 / dt ({clock.dt}s), "
            "the bound on a candidate's vph, is not finite"
        )
    return job_clock


def forecast_demands(
    estimate: DemandEstimate, factors: Sequence[float]
) -> list[tuple[float, ...]]:
    """One candidate demand vector per scaling factor."""
    if not factors or any(f <= 0.0 for f in factors):
        raise ValueError("factors must be a nonempty list of positive scalars")
    return [tuple(v * f for v in estimate.vph) for f in factors]


def match_demand(measured: Sequence[float], candidates: Sequence[Sequence[float]]) -> int:
    """Index of the candidate nearest to the measured demand (Euclidean)."""
    if not candidates:
        raise ValueError("candidates must be nonempty")
    best_index = 0
    best_dist = math.inf
    for i, cand in enumerate(candidates):
        if len(cand) != len(measured):
            raise ValueError(
                f"candidate {i} has dimension {len(cand)}, expected {len(measured)}"
            )
        dist = math.sqrt(sum((m - c) ** 2 for m, c in zip(measured, cand)))
        if dist < best_dist:
            best_dist = dist
            best_index = i
    return best_index


def _execute_job(
    network: Network,
    job: SimulationJob,
    vehicle: VehicleParams | None,
    carryover_turns: bool,
) -> SimulationResult:
    try:
        sim = Simulation(
            network,
            flows=job.flows,
            algorithm=job.algorithm,
            seed=job.seed,
            clock=job.clock,
            vehicle=vehicle,
            departure_mode=job.departure_mode,
            carryover_turns=carryover_turns,
        )
        return sim.run()
    except Exception as exc:  # capture in the result slot, do not propagate
        return SimulationResult(
            algorithm=job.algorithm,
            seed=job.seed,
            scenario_id=None,
            window=job.clock.window,
            error=f"{type(exc).__name__}: {exc}",
        )


@contextmanager
def worker_pool(parallelism: int, n_jobs: int) -> Iterator[Executor | None]:
    """A process pool of ``min(parallelism, n_jobs)`` workers, shut down
    on exit; None when the jobs run serially in this process."""
    if parallelism <= 1 or n_jobs <= 1:
        yield None
        return
    # Imported here so that commands that never fan out do not load
    # multiprocessing at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(parallelism, n_jobs)) as pool:
        yield pool


def run_parallel(
    network: Network,
    jobs: Sequence[SimulationJob],
    parallelism: int = 1,
    vehicle: VehicleParams | None = None,
    carryover_turns: bool = True,
    pool: Executor | None = None,
) -> list[SimulationResult]:
    """Run independent jobs and return results sorted by job id.

    Output is invariant to the degree of parallelism: each job is a pure
    function of its own seed and inputs, and a failure is captured in
    that job's result slot without affecting the others.  The jobs go to
    ``pool`` if one is given; otherwise to a ``worker_pool`` opened for
    this call alone, which starts at most one worker per job.
    """
    ordered = sorted(jobs, key=lambda j: j.job_id)
    opened = nullcontext(pool) if pool is not None else worker_pool(parallelism, len(ordered))
    with opened as executor:
        if executor is None:
            return [_execute_job(network, job, vehicle, carryover_turns) for job in ordered]
        futures = [
            executor.submit(_execute_job, network, job, vehicle, carryover_turns)
            for job in ordered
        ]
        return [f.result() for f in futures]


def select_controller(
    results: Sequence[tuple[SimulationJob, SimulationResult]],
    matched_demand: int,
) -> TwinSelection:
    """Pick the algorithm with the lowest mean control delay for the
    matched demand.

    Ties break by algorithm registration order (baseline, dt1, dt2).
    """
    if not results:
        raise ValueError("select_controller needs at least one result")
    scored = []
    for job, res in results:
        score = res.mean_control_delay
        scored.append((job.job_id, job.algorithm, score, los_from_control_delay(score).grade))
    chosen = min(scored, key=lambda row: (row[2], ALGORITHMS.index(row[1])))
    return TwinSelection(tuple(scored), chosen[1], matched_demand)


# -- the live loop -----------------------------------------------------------


def check_demand_program(demand_program: Sequence[DemandPhase]) -> None:
    """Raise ValueError, naming the entry, unless the program is nonempty,
    its earliest phase starts at 0 and every phase lists the same ordered
    origin/destination pairs (the live flow indices), none twice."""
    if not demand_program:
        raise ValueError("demand_program must hold at least one phase")
    first = min(phase.start for phase in demand_program)
    if first != 0.0:
        raise ValueError(f"demand_program: the earliest start must be 0, got {first}")
    ods = [(f.origin, f.destination) for f in demand_program[0].flows]
    for i, phase in enumerate(demand_program):
        if [(f.origin, f.destination) for f in phase.flows] != ods:
            raise ValueError(
                f"demand_program[{i}].flows: every phase must list the same "
                "origin/destination pairs, in the same order, as demand_program[0]"
            )
    _check_distinct_pairs(demand_program[0].flows, "demand_program[0].flows")


def _subject_flows(network: Network, ods: Sequence[tuple[str, str]]) -> list[int]:
    """Indices, in order, of the origin/destination pairs in the subject's
    slice: every pair whose route enters the subject intersection, then
    every pair whose route shares a segment with a kept pair, until none is
    added.  A pair that ``shortest_path`` refuses is kept, so that a job
    fails on it as it would on every flow.  ``live_loop`` runs each job on
    the slice alone; ``cli.cmd_compare`` runs the pairs outside it once
    and the slice once per algorithm.

    The slice is exact.  A vehicle reads only its lane leader, its
    segment's pocket tail, its signal and the lanes of the segment it
    enters or is inserted into; the fixed plan depends only on time, and
    the subject's signal only on the vehicles on its approaches.  Every
    vehicle on a segment of a kept route belongs to a kept pair, and each
    flow draws its departures from its own stream, so the kept vehicles
    move as they do among all the flows.  So do the others, which never
    meet a kept vehicle or the subject's signal, under every controller.
    """
    routes: list[frozenset[str] | None] = []
    for origin, destination in ods:
        try:
            routes.append(frozenset(shortest_path(network, origin, destination)))
        except (NetworkError, UnknownIdError):
            routes.append(None)
    reached = set(network.incoming(network.subject_intersection))
    kept = {i for i, route in enumerate(routes) if route is None}
    grown = True
    while grown:
        grown = False
        for i, route in enumerate(routes):
            if i not in kept and not reached.isdisjoint(route):
                kept.add(i)
                reached |= route
                grown = True
    return sorted(kept)


def build_live_schedule(
    demand_program: Sequence[DemandPhase],
    horizon: float,
    seed: int,
    departure_mode: str = "poisson",
) -> list[DepartureRow]:
    """Expand a piecewise-constant demand program into a departure schedule.

    Every phase draws from its own derived stream, so editing one phase
    never perturbs the others.
    """
    check_demand_program(demand_program)
    phases = sorted(demand_program, key=lambda p: p.start)
    schedule: list[DepartureRow] = []
    for i, phase in enumerate(phases):
        end = phases[i + 1].start if i + 1 < len(phases) else horizon
        duration = end - phase.start
        if duration > 0.0:
            phase_seed = label_seed(seed, f"live-phase:{i}")
            schedule += departure_rows(
                phase.flows, duration, phase_seed, departure_mode, phase.start
            )
    schedule.sort(key=lambda r: (r[0], r[1]))
    return schedule


def estimate_demand(
    flow_insertions: Sequence[Sequence[float]], now: float, window: float
) -> DemandEstimate:
    """Trailing-window arrival rates from observed insertion times."""
    lo = max(0.0, now - window)
    span = now - lo
    vph = []
    for times in flow_insertions:
        n = bisect_left(times, now) - bisect_left(times, lo)
        vph.append(n * 3600.0 / span if span > 0 else 0.0)
    return DemandEstimate(window_length=window, vph=tuple(vph))


def live_loop(
    network: Network,
    demand_program: Sequence[DemandPhase],
    settings: TwinSettings,
    *,
    seed: int,
    clock: SimClock | None = None,
    vehicle: VehicleParams | None = None,
    carryover_turns: bool = True,
    trajectory_sink: Callable[[str], None] | None = None,
) -> tuple[dict, SimulationResult, Simulation]:
    """Run the live simulation, re-selecting its controller every period.

    Returns the manifest (dimensions, per-period evidence, swap events),
    the live run's aggregated result, and the live simulation itself.
    The live run simulates every flow of ``demand_program``; each job
    simulates only the flows of the subject's slice, in program order, at
    its candidate's rates.  That is exact (see ``_subject_flows``): a
    job's control and stopped delays at the subject, and so its score,
    equal those of the job on every flow, while its unrecorded counts
    (``inserted``, ``exited``, ``deferred_insertions``,
    ``mean_depart_delay``) cover only the slice.

    ``trajectory_sink`` receives the live run's trajectory as
    ``Simulation`` hands it over: one string per step, holding that step's
    rows, each ending in ``\\n``.  Raises ValueError, naming the field,
    before anything runs if ``check_settings`` refuses the settings.
    """
    clock = clock or SimClock()
    job_clock = check_settings(settings, clock, network)
    schedule = build_live_schedule(
        demand_program, clock.horizon, seed, settings.departure_mode
    )
    ods = [(f.origin, f.destination) for f in demand_program[0].flows]
    depart_speeds = [f.depart_speed for f in demand_program[0].flows]
    sliced = _subject_flows(network, ods)
    sim = Simulation(
        network,
        schedule=schedule,
        algorithm=settings.initial_algorithm,
        seed=seed,
        clock=clock,
        vehicle=vehicle,
        carryover_turns=carryover_turns,
        trajectory_sink=trajectory_sink,
    )
    # One insertion list per OD pair of the program, also for a pair that never departs.
    sim.flow_insertions += [[] for _ in range(len(ods) - len(sim.flow_insertions))]

    n_periods = max(0, math.floor(clock.horizon / settings.period) - 1)
    eval_times = [settings.period * (i + 1) for i in range(n_periods)]
    current_token = settings.initial_algorithm
    period_records: list[dict] = []

    # One pool serves every period and is shut down when the loop ends or
    # raises.  It is opened once the live run has reached the first period,
    # so that the live run's set-up does not include loading it.
    sim.run_until(settings.period)
    with worker_pool(settings.parallelism, len(settings.factors) * len(ALGORITHMS)) as pool:
        for p, t_eval in enumerate(eval_times):
            sim.run_until(t_eval)
            estimate = estimate_demand(sim.flow_insertions, t_eval, settings.estimate_window)
            candidates = forecast_demands(estimate, settings.factors)
            jobs = []
            for c, cand in enumerate(candidates):
                flows = tuple(Flow(*ods[i], cand[i], depart_speeds[i]) for i in sliced)
                for algo in ALGORITHMS:
                    jobs.append(
                        SimulationJob(
                            job_id=f"p{p:03d}-c{c}-{algo}",
                            flows=flows,
                            algorithm=algo,
                            seed=label_seed(seed, f"twin:p{p}:c{c}:{algo}"),
                            clock=job_clock,
                            candidate_index=c,
                            departure_mode=settings.departure_mode,
                        )
                    )
            results = run_parallel(
                network, jobs, settings.parallelism, vehicle, carryover_turns, pool
            )
            paired = list(zip(sorted(jobs, key=lambda j: j.job_id), results))
            degraded = any(res.error for _, res in paired)
            matched = match_demand(estimate.vph, candidates)
            record = {
                "period": p,
                "time": t_eval,
                "measured_vph": list(estimate.vph),
                "candidates": [list(c) for c in candidates],
                "matched_index": matched,
                "degraded": degraded,
                "jobs": [
                    {
                        "job_id": job.job_id,
                        "candidate": job.candidate_index,
                        "algorithm": job.algorithm,
                        "seed": job.seed,
                        "score": res.mean_control_delay,
                        "error": res.error,
                    }
                    for job, res in paired
                ],
                "selection": None,
            }
            if not degraded:
                matched_results = [
                    (job, res) for job, res in paired if job.candidate_index == matched
                ]
                selection = select_controller(matched_results, matched)
                record["selection"] = {
                    "algorithm": selection.chosen_algorithm,
                    "scored": [list(row) for row in selection.scored],
                }
                if selection.chosen_algorithm != current_token:
                    sim.set_algorithm(selection.chosen_algorithm, tag=f"period-{p}")
                    current_token = selection.chosen_algorithm
            period_records.append(record)

    sim.run_until(clock.horizon)
    result = sim.result()
    manifest = {
        "schema_version": 1,
        "dimensions": default_dimensions(),
        "seed": seed,
        "settings": {**asdict(settings), "factors": list(settings.factors)},
        "periods": period_records,
        "swap_events": list(sim.swap_events),
        "live_summary": {
            "final_algorithm": sim.algorithm,
            "mean_control_delay": result.mean_control_delay,
            "los": los_from_control_delay(result.mean_control_delay).grade,
            "inserted": result.inserted,
            "exited": result.exited,
        },
    }
    return manifest, result, sim
