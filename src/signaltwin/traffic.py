"""Discrete-time vehicle dynamics, demand generation and the simulation engine.

Vehicles follow a simplified safe-speed rule: each step the new speed is
the most permissive value allowed by bounded acceleration, the segment
free-flow speed, the gap to the leader at the start of the step, and the
stop line when the signal requires a stop.  Positions integrate the new
speed.  Intersection crossing happens within the step in which a vehicle
reaches the segment end, provided its movement shows green (or a yellow
it cannot stop for) and the receiving segment has space; otherwise it
waits at the line and spillback propagates upstream.

A simulation instance owns all of its mutable state, so independently
seeded instances can run concurrently without any sharing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .controllers import (
    DecisionInput,
    chain_winner,
    meters_to_miles,
    validate_algorithm,
)
from .delay import (
    STOP_SPEED_THRESHOLD,
    DelayLedger,
    on_approach_transition,
    segment_delay,
    update_waiting,
    vehicle_delay_dt1,
    vehicle_delay_dt2,
)
from .network import (
    ALL_MOVEMENTS,
    Network,
    left_movement,
    shortest_path,
    through_movement,
    turn_of,
)
from .signals import (
    A_GREEN,
    A_YELLOW,
    ASPECTS_PERMISSIVE,
    GREEN_PHASE_FOR_MOVEMENT,
    MOVEMENT_INDEX,
    ControllerTimer,
    _exact_steps,
    interval_rows,
)

# Distance to the stop line at which a stopping vehicle comes to rest.
STOP_LINE_MARGIN = 1.0

# Split (s) of each phase of the fixed two-phase plan that every
# intersection except the subject runs.
FIXED_SPLIT = 30.0

# How departures are spread over time: exponential headways or even spacing.
DEPARTURE_MODES = ("poisson", "uniform")

# Signal aspects are consulted within this distance of the stop line (or
# within braking range, whichever is longer).
SIGNAL_LOOKAHEAD = 50.0

# Entries the trajectory writer's repr memo holds before it is cleared.
_REPR_MEMO_LIMIT = 65_536


class _ReprMemo(dict):
    """float -> ``repr``, filled on a miss; cleared when a miss finds it
    holding ``_REPR_MEMO_LIMIT`` entries."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        if len(self) >= _REPR_MEMO_LIMIT:
            self.clear()
        text = self[x] = repr(x)
        return text


def _require_finite(obj, names: Iterable[str]) -> None:
    """Raise ValueError, naming the field, if one of the fields ``names``
    of ``obj`` is not a finite number."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


@dataclass(frozen=True)
class Flow:
    """Constant-rate demand between two peripheral segments."""

    origin: str
    destination: str
    vph: float
    depart_speed: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.vph) and self.vph >= 0.0):
            raise ValueError(f"vph must be finite and >= 0, got {self.vph}")
        if not (math.isfinite(self.depart_speed) and self.depart_speed >= 0.0):
            raise ValueError(f"depart_speed must be finite and >= 0, got {self.depart_speed}")


def _check_distinct_pairs(flows: Sequence[Flow], where: str) -> None:
    """Raise ValueError, naming the entry of ``flows`` (listed as ``where``),
    if a flow repeats an earlier flow's origin/destination pair: both would
    draw their departures from one random stream, in lockstep."""
    first: dict[tuple[str, str], int] = {}
    for i, flow in enumerate(flows):
        j = first.setdefault((flow.origin, flow.destination), i)
        if j != i:
            raise ValueError(
                f"{where}[{i}]: the origin/destination pair {flow.origin} -> "
                f"{flow.destination} repeats {where}[{j}]"
            )


def _check_seed(seed: int) -> None:
    """Raise ValueError, naming ``seed``, if it is negative: numpy's
    seed sequences refuse one, and the CLI refuses it as a config error."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class DemandScenario:
    """One of the eleven demand levels."""

    scenario_id: int
    flows: tuple[Flow, ...]

    def __post_init__(self) -> None:
        if self.scenario_id not in range(1, 12):
            raise ValueError(f"scenario_id must be 1..11, got {self.scenario_id}")


@dataclass(frozen=True)
class SimClock:
    """Fixed-step clock with warm-up and cool-down margins."""

    dt: float = 1.0
    horizon: float = 3600.0
    warmup: float = 600.0
    cooldown: float = 600.0

    def __post_init__(self) -> None:
        _require_finite(self, ("dt", "horizon", "warmup", "cooldown"))
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        per_second = 1.0 / self.dt
        if abs(per_second - round(per_second)) > 1e-9:
            raise ValueError(f"dt ({self.dt}) must divide one second cleanly")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.warmup < 0.0 or self.cooldown < 0.0:
            raise ValueError("warmup and cooldown must be >= 0")
        # Every time is a whole number of steps; warmup and cooldown may be 0.
        _exact_steps(self.horizon, self.dt, "horizon")
        for name in ("warmup", "cooldown"):
            if getattr(self, name):
                _exact_steps(getattr(self, name), self.dt, name)
        if self.horizon < self.warmup + self.cooldown:
            raise ValueError("horizon must cover warmup + cooldown")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def window(self) -> tuple[float, float]:
        """Inclusive interval over which metrics accumulate."""
        return (self.warmup, self.horizon - self.cooldown)


@dataclass(frozen=True)
class VehicleParams:
    length: float = 5.0
    max_accel: float = 2.6
    max_decel: float = 4.5
    min_gap: float = 2.5

    def __post_init__(self) -> None:
        _require_finite(self, ("length", "max_accel", "max_decel", "min_gap"))
        if min(self.length, self.max_accel, self.max_decel) <= 0.0:
            raise ValueError("length, max_accel and max_decel must be positive")
        if self.min_gap < 0.0:
            raise ValueError("min_gap must be >= 0")


def _check_vehicle_fits(network: Network, params: VehicleParams) -> None:
    """Raise ValueError, naming ``length``, if a vehicle and its minimum
    gap are longer than the network's shortest segment."""
    seg = min(network.segments.values(), key=lambda s: s.length)
    if params.length + params.min_gap > seg.length:
        raise ValueError(f"length ({params.length} m) plus min_gap ({params.min_gap} m) is "
                         f"longer than the shortest segment, {seg.id} ({seg.length} m)")


class Departure(NamedTuple):
    time: float
    origin: str
    destination: str


# One scheduled departure: (time, flow index, origin, destination, depart_speed).
DepartureRow = tuple[float, int, str, str, float]


def stream_seed(seed: int, label: str) -> np.random.SeedSequence:
    """Derive an independent random stream from a root seed and a label.

    Adding new labelled streams never perturbs existing ones.
    """
    digest = hashlib.sha256(label.encode()).digest()
    return np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")])


def label_seed(seed: int, label: str) -> int:
    """Derive an integer root seed in [0, 2**63) from a root seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def generate_departures(
    flow: Flow,
    horizon: float,
    seed: int,
    mode: str = "poisson",
) -> list[Departure]:
    """Departure schedule for one flow over [0, horizon).

    Uniform mode spaces floor(vph * horizon / 3600) departures evenly
    from time 0; poisson mode draws exponential headways from the stream
    derived from (seed, flow), so identical inputs give identical
    schedules.
    """
    if mode not in DEPARTURE_MODES:
        raise ValueError(f"departure mode must be one of {DEPARTURE_MODES}, got {mode!r}")
    _check_seed(seed)
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if flow.vph == 0.0:
        return []
    times: list[float]
    if mode == "uniform":
        count = math.floor(flow.vph * horizon / 3600.0)
        spacing = 3600.0 / flow.vph
        times = [i * spacing for i in range(count)]
    else:
        rng = np.random.default_rng(
            stream_seed(seed, f"flow:{flow.origin}->{flow.destination}")
        )
        scale = 3600.0 / flow.vph
        times = []
        t = rng.exponential(scale)
        while t < horizon:
            times.append(t)
            t += rng.exponential(scale)
    return [Departure(t, flow.origin, flow.destination) for t in times]


def departure_rows(
    flows: Sequence[Flow],
    horizon: float,
    seed: int,
    mode: str,
    start: float = 0.0,
) -> list[DepartureRow]:
    """One row per departure of each flow over [start, start + horizon),
    flow by flow; the row's flow index is the flow's position in ``flows``."""
    return [
        (start + dep.time, idx, flow.origin, flow.destination, flow.depart_speed)
        for idx, flow in enumerate(flows)
        for dep in generate_departures(flow, horizon, seed, mode)
    ]


def scenario_catalog(
    base_vph: float,
    ladder_factor: float,
    od_pairs: Sequence[tuple[str, str]],
    depart_speed: float = 0.0,
) -> list[DemandScenario]:
    """The eleven-step demand ladder over a fixed set of OD pairs.

    Scenario k assigns base_vph * (1 + (k - 1) * ladder_factor) to every
    flow, so demand rises monotonically from scenario 1 to 11.
    """
    if base_vph <= 0.0 or ladder_factor <= 0.0:
        raise ValueError("base_vph and ladder_factor must be positive")
    scenarios = []
    for k in range(1, 12):
        vph = base_vph * (1.0 + (k - 1) * ladder_factor)
        flows = tuple(Flow(o, d, vph, depart_speed) for o, d in od_pairs)
        scenarios.append(DemandScenario(k, flows))
    return scenarios


class Vehicle:
    """Mutable per-vehicle state.

    A vehicle exists from the start of the run: it waits in its origin's
    pending queue until inserted, then lives inside exactly one lane list.
    Insertion sets ``entry_time`` and caps ``speed`` (the departure speed
    until then) at the origin's free-flow speed.
    """

    __slots__ = (
        "vid", "route", "route_index", "position", "speed",
        "ledger", "entry_time", "turns", "stop_movements", "moved_step",
        "depart_time", "flow_index", "stop_movement", "turns_left", "row_key",
    )

    def __init__(
        self,
        vid: str,
        route: tuple[str, ...],
        turns: tuple[str, ...],
        stop_movements: tuple[int, ...],
        params: VehicleParams,
        depart_time: float,
        depart_speed: float,
        flow_index: int = 0,
    ) -> None:
        self.vid = vid
        self.route = route
        self.route_index = 0
        self.position = params.length
        self.speed = depart_speed
        self.ledger = DelayLedger()
        self.entry_time = self.depart_time = depart_time
        self.turns = turns
        self.stop_movements = stop_movements
        # The entries of the current segment, which the vehicle sweep reads;
        # Simulation._cross keeps them in step with route_index.
        self.stop_movement = stop_movements[0]
        self.turns_left = turns[0] == "left"
        # The step in which the vehicle last crossed into a segment.
        self.moved_step = -1
        self.flow_index = flow_index
        # ",{vid},{segment id}," of the current segment, as the trajectory
        # writer fills it; Simulation._cross resets it on every crossing.
        self.row_key: str | None = None


def _fill_row_key(veh: Vehicle, seg_id: str) -> str:
    """Cache and return the trajectory row key of ``veh`` on ``seg_id``."""
    key = veh.row_key = f",{veh.vid},{seg_id},"
    return key


class _SegmentState:
    """Runtime occupancy of one segment: through lanes plus a pocket."""

    __slots__ = (
        "index", "seg_id", "length", "vff", "lane_count", "pocket_start",
        "signal", "lanes", "pocket", "sweep", "sweep_constants",
    )

    def __init__(self, index: int, seg, signal: ControllerTimer | None) -> None:
        self.index = index  # position in Simulation._state_list
        self.seg_id = seg.id
        self.length = seg.length
        self.vff = seg.free_flow_speed
        self.lane_count = seg.lane_count
        self.pocket_start = seg.pocket_start
        self.signal = signal  # the timer ahead; None for an exit stub
        self.lanes: list[list[Vehicle]] = [[] for _ in range(seg.lane_count)]
        self.pocket: list[Vehicle] | None = [] if seg.has_pocket else None
        # Lanes in sweep order: the pocket first, then the through lanes.
        self.sweep: tuple[list[Vehicle], ...] = (
            tuple(self.lanes) if self.pocket is None else (self.pocket, *self.lanes)
        )
        # What Simulation._advance_vehicles reads of the segment, unpacked
        # in one go: each lane in sweep order with whether its vehicles can
        # still move into the pocket (only through-lane vehicles can), then
        # the free-flow speed, the length, the position from which a vehicle
        # crosses, the pocket, where it starts and the signal ahead.
        self.sweep_constants = (
            tuple((lane, self.pocket is not None and lane is not self.pocket)
                  for lane in self.sweep),
            self.vff, self.length, self.length - 1e-9,
            self.pocket, self.pocket_start, signal,
        )

    def vehicle_count(self) -> int:
        return sum(len(lane) for lane in self.sweep)


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation job."""

    algorithm: str
    seed: int
    scenario_id: int | None
    window: tuple[float, float]
    inserted: int = 0
    exited: int = 0
    deferred_insertions: int = 0
    mean_depart_delay: float = 0.0
    mean_control_delay: float = 0.0
    measured_traversals: int = 0
    control_delays: list[tuple[float, float]] = field(default_factory=list)
    movement_stopped_delays: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    error: str | None = None

    def movement_delay_values(self, movement: str) -> list[float]:
        return [v for _, v in self.movement_stopped_delays.get(movement, [])]

    def control_delay_values(self) -> list[float]:
        return [v for _, v in self.control_delays]

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "window": list(self.window),
            "control_delays": [[t, v] for t, v in self.control_delays],
            "movement_stopped_delays": {
                m: [[t, v] for t, v in rows]
                for m, rows in sorted(self.movement_stopped_delays.items())
            },
        }


class Simulation:
    """One deterministic microsimulation run on an immutable network.

    ``trajectory_sink``, if given, is called once per step that has
    vehicles on the network, with one string holding that step's
    trajectory rows (``t,vehicle_id,segment_id,position,speed,waiting,
    accumulated_waiting``, floats as ``repr``), each ending in ``\\n``.
    The strings concatenate to the body of ``trajectory.csv``.
    """

    def __init__(
        self,
        network: Network,
        flows: Sequence[Flow] | None = None,
        *,
        schedule: Sequence[DepartureRow] | None = None,
        algorithm: str = "baseline",
        seed: int = 0,
        clock: SimClock | None = None,
        vehicle: VehicleParams | None = None,
        departure_mode: str = "poisson",
        carryover_turns: bool = True,
        scenario_id: int | None = None,
        trajectory_sink: Callable[[str], None] | None = None,
    ) -> None:
        self.network = network
        self.algorithm = validate_algorithm(algorithm)
        _check_seed(seed)
        self.seed = seed
        self.clock = clock or SimClock()
        self.params = vehicle or VehicleParams()
        _check_vehicle_fits(network, self.params)
        self.carryover_turns = carryover_turns
        self.scenario_id = scenario_id
        self._traj_sink = trajectory_sink
        self._repr_memo = _ReprMemo()  # for _log_trajectory

        self.dt = self.clock.dt
        self._step_index = 0
        self.t = 0.0

        subject = network.subject_intersection
        segments = network.segments
        # Signals: the subject intersection runs the adaptive nine-phase
        # plan with protected lefts; every other one runs the same fixed-time
        # two-phase plan with permissive lefts from the same start, on one
        # shared timer.
        self._subject_timer = ControllerTimer(self.dt)
        self._fixed_timer = ControllerTimer(self.dt, aspects=ASPECTS_PERMISSIVE)
        signal_at = {**dict.fromkeys(network.nodes, self._fixed_timer),
                     subject: self._subject_timer}
        self._states: dict[str, _SegmentState] = {
            seg_id: _SegmentState(i, segments[seg_id], signal_at.get(segments[seg_id].to_node))
            for i, seg_id in enumerate(sorted(segments))
        }
        self._state_list = list(self._states.values())
        # Indices into _state_list of the segments that hold a vehicle.
        self._occupied: set[int] = set()
        # The fixed source's cycle and split, in steps.
        self._fixed_cycle = round(2 * FIXED_SPLIT / self.dt), round(FIXED_SPLIT / self.dt)
        # The step at which _tick_signals acts next: the earlier timer's due step.
        self._next_signal = 0
        # Per subject approach: its through lanes and its pocket, their
        # movement indices, and their lane-miles.
        self._subject_approaches = tuple(
            (
                st.lanes, st.pocket,
                MOVEMENT_INDEX[seg.movement], MOVEMENT_INDEX[seg.left_movement],
                st.lane_count * meters_to_miles(st.length),
                meters_to_miles(st.length - st.pocket_start),
            )
            for st, seg in ((self._states[s], segments[s]) for s in network.incoming(subject))
        )

        # Demand: explicit schedule or flows expanded per departure mode.
        self.flows: tuple[Flow, ...] = tuple(flows) if flows else ()
        _check_distinct_pairs(self.flows, "flows")
        if schedule is None:
            schedule = departure_rows(self.flows, self.clock.horizon, seed, departure_mode)
        elif flows:
            raise ValueError("pass either flows or an explicit schedule, not both")
        rows = sorted(schedule, key=lambda r: (r[0], r[1]))

        # Per OD pair: the route, the turn after each of its segments and
        # the movement index each segment's stop line shows the vehicle.
        plans: dict[tuple[str, str], tuple] = {}
        for origin, destination in dict.fromkeys((r[2], r[3]) for r in rows):
            route = shortest_path(network, origin, destination)
            directions = [segments[s].movement.direction for s in route]
            turns = (*map(turn_of, directions, directions[1:]), "exit")
            plans[origin, destination] = (route, turns, tuple(
                MOVEMENT_INDEX[left_movement(d) if turn == "left" else through_movement(d)]
                for d, turn in zip(directions, turns)
            ))
        # Every departure is its Vehicle, in departure order; each origin's
        # pending queue holds the same objects, earliest departure last.
        self.departure_schedule: list[Vehicle] = []
        self._pending: dict[str, list[Vehicle]] = {}
        counters: dict[int, int] = {}
        for time, idx, origin, destination, depart_speed in rows:
            n = counters.get(idx, 0)
            counters[idx] = n + 1
            # + 0.0 turns a -0.0 departure speed into 0.0 (see _log_trajectory).
            veh = Vehicle(f"f{idx}.{n}", *plans[origin, destination], self.params, time,
                          depart_speed + 0.0, idx)
            self.departure_schedule.append(veh)
            self._pending.setdefault(origin, []).append(veh)
        for queue in self._pending.values():
            queue.reverse()  # pop from the end = earliest departure first
        self._pending_count = len(rows)
        self._next_due = self._earliest_departure()
        n_flows = max(max(counters, default=-1) + 1, len(self.flows))
        self.flow_insertions: list[list[float]] = [[] for _ in range(n_flows)]

        # Counters and measurement records.
        self.inserted = 0
        self.exited = 0
        self._depart_delay_sum = 0.0
        self._control_delays: list[tuple[float, float]] = []
        # Indexed by MOVEMENT_INDEX; keyed by movement name only in result().
        self._movement_stops: list[list[tuple[float, float]]] = [[] for _ in ALL_MOVEMENTS]
        self.swap_events: list[dict] = []
        self._pending_algorithm: tuple[str, str] | None = None

    # -- adaptive control ----------------------------------------------------

    def set_algorithm(self, token: str, tag: str = "") -> None:
        """Schedule a controller swap at the next green-stage decision point."""
        self._pending_algorithm = (validate_algorithm(token), tag)

    def _subject_decision(self) -> int:
        if self._pending_algorithm is not None:
            token, tag = self._pending_algorithm
            self._pending_algorithm = None
            if token != self.algorithm:
                self.swap_events.append(
                    {
                        "time": self.t,
                        "from": self.algorithm,
                        "to": token,
                        "tag": tag,
                    }
                )
                self.algorithm = token
        values = self._decision_values()
        # DecisionInput's check, with a fast accept: min finds a negative
        # value and the sum a NaN or an infinity.
        if not (min(values) >= 0.0 and sum(values) < math.inf):
            DecisionInput(tuple(values), self.network.subject_intersection, self.t)
        return GREEN_PHASE_FOR_MOVEMENT[chain_winner(values)]

    def _decision_values(self) -> list[float]:
        """The subject's eight observations under the current algorithm, in
        ``MOVEMENT_INDEX`` order.

        The baseline's are ``controllers.approach_density`` over lane-miles
        computed once.  dt1's and dt2's are the mean of the approach's
        per-vehicle delays, taken as ``delay.approach_delays`` takes it, so
        that the floats agree.  Either is 0 on an empty approach, which
        low-density runs meet often, so its slots are left at 0.0.
        """
        values = [0.0] * len(ALL_MOVEMENTS)
        approaches = self._subject_approaches
        if self.algorithm == "baseline":
            for lanes, pocket, through, left, through_miles, pocket_miles in approaches:
                if any(lanes):
                    values[through] = sum(map(len, lanes)) / through_miles
                if pocket:
                    values[left] = len(pocket) / pocket_miles
        else:
            delay = vehicle_delay_dt1 if self.algorithm == "dt1" else vehicle_delay_dt2
            for lanes, pocket, through, left, _, _ in approaches:
                if any(lanes):
                    delays = [delay(veh.ledger) for lane in lanes for veh in lane]
                    values[through] = sum(delays) / len(delays)
                if pocket:
                    delays = [delay(veh.ledger) for veh in pocket]
                    values[left] = sum(delays) / len(delays)
        return values

    # -- stepping ------------------------------------------------------------

    def run(self) -> SimulationResult:
        self.run_until(self.clock.horizon)
        return self.result()

    def run_until(self, until: float) -> None:
        n_until = min(round(until / self.dt), self.clock.n_steps)
        while self._step_index < n_until:
            self.step()

    def step(self) -> None:
        k = self._step_index
        t = k * self.dt
        self.t = t
        if t + 1e-9 >= self._next_due:
            self._insert_departures(t)
        if self._traj_sink is not None:
            self._log_trajectory(t)
        self._tick_signals(k)
        self._advance_vehicles(t)
        self._step_index = k + 1
        self.t = (k + 1) * self.dt

    # -- insertion -----------------------------------------------------------

    def _insert_departures(self, t: float) -> None:
        params = self.params
        min_entry = params.length + params.min_gap
        inserted_before = self.inserted
        for origin, queue in self._pending.items():
            st = self._states[origin]
            while queue and queue[-1].depart_time <= t + 1e-9:
                best_rear, best_lane = self._roomiest_lane(st)
                if best_rear < min_entry:
                    break  # blocked; retry next step, keep flow order
                veh = queue.pop()
                veh.entry_time = t
                veh.speed = min(veh.speed, st.vff)
                best_lane.append(veh)
                self._occupied.add(st.index)
                self.inserted += 1
                self._pending_count -= 1
                self._depart_delay_sum += t - veh.depart_time
                self.flow_insertions[veh.flow_index].append(t)
        if self.inserted != inserted_before:
            self._next_due = self._earliest_departure()

    def _roomiest_lane(self, st: _SegmentState) -> tuple[float, list[Vehicle] | None]:
        """The rear of the last vehicle in the lane of ``st`` where it lies
        furthest along, and that lane; an empty lane counts as a rear at
        ``st.length + 1e9``.  The first such lane wins a tie."""
        veh_len = self.params.length
        best_rear, best_lane = -math.inf, None
        for lane in st.lanes:
            rear = lane[-1].position - veh_len if lane else st.length + 1e9
            if rear > best_rear:
                best_rear, best_lane = rear, lane
        return best_rear, best_lane

    def _earliest_departure(self) -> float:
        """The earliest departure time still pending; inf if none is.

        ``step`` calls ``_insert_departures`` only once the clock reaches
        it.  Only an insertion changes it, so ``_insert_departures``
        refreshes it after each step that inserts.  A due departure that
        its origin blocks keeps it at or below the clock, so it is retried
        every step.
        """
        return min((q[-1].depart_time for q in self._pending.values() if q), default=math.inf)

    # -- signals ---------------------------------------------------------------

    def _tick_signals(self, k: int) -> None:
        """Tick at step ``k`` each of the two timers, the subject's and the
        one the fixed-time intersections share, whose ``due`` step it is.

        A timer's aspect row changes only at those ticks, so on every other
        step this returns at once.  The fixed timer's source reads the step
        being ticked: phase 0 in the first split of each cycle, phase 2 in
        the second.
        """
        if k < self._next_signal:
            return
        fixed, subject = self._fixed_timer, self._subject_timer
        if k == fixed.due:
            cycle, split = self._fixed_cycle
            fixed.tick(k, lambda: 0 if k % cycle < split else 2)
        if k == subject.due:
            # Looked up on each tick, so a replacement set on the instance is used.
            subject.tick(k, self._subject_decision)
        self._next_signal = min(fixed.due, subject.due)

    def signal_lines(self) -> Iterator[str]:
        """The body of ``signals.csv``, the one definition of its rows: per
        step run so far, one string of ``t,node,phase,stage,green_elapsed``
        lines, one per intersection in sorted order, floats as ``repr``,
        each ending in ``\n``.

        The subject's rows and the fixed-time nodes' are expanded from the
        two timers' logs by ``interval_rows``.  Each distinct fixed row's
        node lines are formatted once per call, without their time, and the
        subject's line through a memo of its own: a run shows few distinct
        rows.  A row's ``green_elapsed`` is a whole number of steps times
        ``dt``, never ``-0.0``, which the memos' keys could not tell from
        ``0.0``.
        """
        nodes, dt, stop = sorted(self.network.nodes), self.dt, self._step_index
        subject = self.network.subject_intersection
        at = nodes.index(subject)
        # Per fixed row, every node's line after the time; the subject's
        # entry is replaced in each step.
        fixed_memo: dict[tuple[int, str, float], list[str]] = {}
        memo: dict[tuple[int, str, float], str] = {}
        logs = (self._subject_timer.log, self._fixed_timer.log)
        for k, (own, fixed) in enumerate(zip(*(interval_rows(log, dt, stop) for log in logs))):
            lines = fixed_memo.get(fixed) or fixed_memo.setdefault(
                fixed, [f",{node},{fixed[0]},{fixed[1]},{fixed[2]!r}\n" for node in nodes]
            )
            lines = lines.copy()
            lines[at] = memo.get(own) or memo.setdefault(
                own, f",{subject},{own[0]},{own[1]},{own[2]!r}\n"
            )
            t = repr(k * dt)
            yield t + t.join(lines)

    # -- vehicle dynamics --------------------------------------------------------

    def _advance_vehicles(self, t: float) -> None:
        """One Gauss-Seidel sweep: each follower reads its leader's new state.

        Only segments occupied when the sweep starts are visited, in
        ``_state_list`` order.  A segment that gains its first vehicle
        during the sweep holds only vehicles that have already moved, so
        visiting it would change nothing.  A vehicle leaves a segment only
        by crossing out of it in the segment's own sweep, so the segment
        can have emptied only if one did.

        The only moved vehicles the sweep can meet are those that crossed
        into a later segment earlier in it (``_cross`` marks them), at the
        back of a lane.  A vehicle that moves into the pocket lands in a
        lane already swept: the pocket is swept before the through lanes.

        Every vehicle is built from ``self.params``, so the per-vehicle
        products are computed once here; each equals the per-vehicle one
        bit for bit.
        """
        k = self._step_index
        dt = self.dt
        t_out = t + dt
        params = self.params
        min_gap = params.min_gap
        veh_len = params.length
        accel_dt = params.max_accel * dt
        two_decel = 2.0 * params.max_decel
        lookahead, margin, stop_speed = SIGNAL_LOOKAHEAD, STOP_LINE_MARGIN, STOP_SPEED_THRESHOLD
        green, yellow, sqrt = A_GREEN, A_YELLOW, math.sqrt
        cross = self._cross
        states = self._state_list
        occupied = self._occupied
        for index in sorted(occupied):
            st = states[index]
            lanes, vff, seg_len, cross_at, pocket, pocket_start, signal = st.sweep_constants
            displays = None if signal is None else signal.aspect_row
            left = False  # a vehicle crossed out of this segment
            for lane, to_pocket in lanes:
                n = len(lane)
                if not n:
                    continue
                i = 0
                prev_rear = None
                while i < n:
                    veh = lane[i]
                    if veh.moved_step == k:
                        # Appended by a crossing earlier in this sweep; all
                        # vehicles behind it arrived the same way.
                        break
                    old_pos = veh.position
                    old_speed = veh.speed
                    v = old_speed + accel_dt
                    if v > vff:
                        v = vff
                    may_cross = False
                    if prev_rear is not None:
                        allowed = (prev_rear - old_pos - min_gap) / dt
                        if v > allowed:
                            v = allowed if allowed > 0.0 else 0.0
                    elif displays is None:
                        may_cross = True  # exit stub, no junction ahead
                    else:
                        # Front vehicle: signal obedience and crossing rules,
                        # within the lookahead or braking reach of the line.
                        dist = seg_len - old_pos
                        if dist <= lookahead or (
                            dist <= v * dt + old_speed * old_speed / two_decel + 5.0
                        ):
                            aspect = displays[veh.stop_movement]
                            if aspect == green:
                                may_cross = True
                            else:
                                stop = True
                                if aspect == yellow:
                                    brake = old_speed * old_speed / two_decel
                                    if brake > dist - margin:
                                        stop = False  # cannot stop comfortably; proceed
                                        may_cross = True
                                if stop:
                                    room = dist - margin
                                    if room <= 0.0:
                                        v = 0.0
                                    else:
                                        allowed = room / dt
                                        brake_v = sqrt(two_decel * room)
                                        if brake_v < allowed:
                                            allowed = brake_v
                                        if v > allowed:
                                            v = allowed

                    # Left-turners queue into the pocket; a full pocket acts
                    # as a virtual leader so the through lane backs up.
                    turns_left = to_pocket and veh.turns_left
                    if turns_left and pocket:
                        tail_rear = pocket[-1].position - veh_len
                        if tail_rear > old_pos:
                            allowed = (tail_rear - old_pos - min_gap) / dt
                            if v > allowed:
                                v = allowed if allowed > 0.0 else 0.0

                    new_pos = old_pos + v * dt

                    if may_cross and new_pos >= cross_at:
                        if cross(veh, st, new_pos - seg_len, v, t_out):
                            lane.pop(i)
                            n -= 1
                            left = True
                            continue
                        # Receiving segment blocked: hold at the line.
                        new_pos = min(new_pos, seg_len - 0.01)
                        if new_pos < old_pos:
                            new_pos = old_pos
                        v = (new_pos - old_pos) / dt

                    veh.position = new_pos
                    veh.speed = v
                    ledger = veh.ledger
                    # delay.update_waiting, inlined; test_engine_properties checks they agree.
                    if v < stop_speed:
                        ledger.waiting += dt
                        ledger.accumulated += dt
                    else:
                        ledger.waiting = 0.0

                    if turns_left and new_pos >= pocket_start:
                        tail_rear = pocket[-1].position - veh_len if pocket else seg_len + 1e9
                        if tail_rear - min_gap >= new_pos:
                            lane.pop(i)
                            n -= 1
                            pocket.append(veh)
                            continue

                    prev_rear = new_pos - veh_len
                    i += 1
            if left and not any(st.sweep):
                occupied.discard(index)

    def _cross(
        self,
        veh: Vehicle,
        st: _SegmentState,
        overflow: float,
        v: float,
        t_out: float,
    ) -> bool:
        """Move a vehicle past the end of its segment; False if blocked."""
        idx = veh.route_index
        turn = veh.turns[idx]
        entry_front = overflow

        if turn != "exit":
            next_st = self._states[veh.route[idx + 1]]
            best_rear, best_lane = self._roomiest_lane(next_st)
            limit = best_rear - self.params.min_gap
            if limit < 0.0:
                return False
            if entry_front > limit:
                entry_front = limit

        # The roll-over carries the stopped delay incurred on the approach
        # being left; at the subject that is the movement's measurement.
        ledger = on_approach_transition(veh.ledger)
        if st.signal is self._subject_timer:
            self._movement_stops[veh.stop_movement].append((t_out, ledger.carried_over))
            self._control_delays.append(
                (t_out, segment_delay(veh.entry_time, t_out, st.length, st.vff))
            )
        if not self.carryover_turns and turn != "straight":
            ledger.carried_over = 0.0
        veh.row_key = None

        if turn == "exit":
            self.exited += 1
            return True

        idx += 1
        veh.route_index = idx
        veh.stop_movement = veh.stop_movements[idx]
        veh.turns_left = veh.turns[idx] == "left"
        veh.moved_step = self._step_index
        veh.position = entry_front
        veh.speed = min(v, next_st.vff)
        veh.entry_time = t_out
        update_waiting(ledger, veh.speed, self.dt)
        best_lane.append(veh)
        self._occupied.add(next_st.index)
        return True

    # -- logging and results -----------------------------------------------------

    def _log_trajectory(self, t: float) -> None:
        """Hand the sink this step's rows as one string, if there are any.

        A row is the step's time, the vehicle's cached ``row_key`` and four
        floats printed through a per-run memo of their reprs: a scenario-11
        hour holds 354,861 rows but only 2,434 distinct values.  Dict keys
        compare with ``==``, so ``-0.0`` would share ``0.0``'s entry; the
        engine never holds a ``-0.0`` (every zero is a literal, a
        difference of equal values or a sum of non-negative ones, and the
        departure speed is normalised in ``__init__``), which
        ``test_engine_invariants_every_step`` checks.
        """
        memo = self._repr_memo
        rows = [
            f"{veh.row_key or _fill_row_key(veh, st.seg_id)}{memo[veh.position]},"
            f"{memo[veh.speed]},{memo[veh.ledger.waiting]},{memo[veh.ledger.accumulated]}\n"
            for st in self._state_list for lane in st.sweep for veh in lane
        ]
        if rows:
            # Every row ends in "\n", so the time goes in front of each.
            tr = repr(t)
            self._traj_sink(tr + tr.join(rows))

    def vehicles_on_network(self) -> int:
        return sum(st.vehicle_count() for st in self._state_list)

    def result(self) -> SimulationResult:
        lo, hi = self.clock.window
        control = [(t, v) for t, v in self._control_delays if lo <= t <= hi]
        movements = {
            m.value: [(t, v) for t, v in rows if lo <= t <= hi]
            for m, rows in zip(ALL_MOVEMENTS, self._movement_stops)
        }
        mean_control = (
            sum(v for _, v in control) / len(control) if control else 0.0
        )
        return SimulationResult(
            algorithm=self.algorithm,
            seed=self.seed,
            scenario_id=self.scenario_id,
            window=(lo, hi),
            inserted=self.inserted,
            exited=self.exited,
            deferred_insertions=self._pending_count,
            mean_depart_delay=self._depart_delay_sum / self.inserted if self.inserted else 0.0,
            mean_control_delay=mean_control,
            measured_traversals=len(control),
            control_delays=control,
            movement_stopped_delays=movements,
        )
