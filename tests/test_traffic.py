"""Demand generation and engine dynamics."""

import hashlib

import numpy as np
import pytest

from signaltwin import traffic
from signaltwin.network import build_grid
from signaltwin.signals import GREEN_PHASES, ControllerTimer, interval_rows
from signaltwin.traffic import (
    Departure,
    DemandScenario,
    Flow,
    SimClock,
    Simulation,
    VehicleParams,
    generate_departures,
    scenario_catalog,
    stream_seed,
)


@pytest.fixture(scope="module")
def grid3():
    return build_grid(3, 3, 500.0, 2, 80.0, 13.89)


def vehicles(sim):
    """Every vehicle on the network, segment by segment in sweep order."""
    return [veh for st in sim._state_list for lane in st.sweep for veh in lane]


def signal_rows(sim):
    """The rows of ``signals.csv`` as ``sim.signal_lines()`` writes them,
    parsed into (t, node, phase, stage, green_elapsed)."""
    rows = []
    for line in "".join(sim.signal_lines()).splitlines():
        t, node, phase, stage, green = line.split(",")
        rows.append((float(t), node, int(phase), stage, float(green)))
    return rows


# -- departures ----------------------------------------------------------


def test_uniform_departures_spacing():
    flow = Flow("a", "b", 360.0)
    deps = generate_departures(flow, 600.0, seed=1, mode="uniform")
    assert len(deps) == 60
    times = [d.time for d in deps]
    assert times == [i * 10.0 for i in range(60)]


def test_zero_demand_empty():
    assert generate_departures(Flow("a", "b", 0.0), 600.0, seed=1) == []


def test_poisson_departures_replay_oracle():
    # Independent replay of the derived stream pins the exact schedule.
    flow = Flow("a", "b", 720.0)
    deps = generate_departures(flow, 3600.0, seed=7, mode="poisson")
    assert 620 <= len(deps) <= 820

    digest = hashlib.sha256("flow:a->b".encode()).digest()
    rng = np.random.default_rng(
        np.random.SeedSequence([7, int.from_bytes(digest[:8], "big")])
    )
    expected = []
    t = rng.exponential(3600.0 / 720.0)
    while t < 3600.0:
        expected.append(t)
        t += rng.exponential(3600.0 / 720.0)
    assert [d.time for d in deps] == expected


def test_departures_deterministic_per_flow_and_seed():
    flow = Flow("o1", "d1", 200.0)
    a = generate_departures(flow, 1800.0, seed=5)
    b = generate_departures(flow, 1800.0, seed=5)
    c = generate_departures(flow, 1800.0, seed=6)
    other = generate_departures(Flow("o2", "d2", 200.0), 1800.0, seed=5)
    assert a == b
    assert [d.time for d in a] != [d.time for d in c]
    assert [d.time for d in a] != [d.time for d in other]


def test_generate_departures_validation():
    with pytest.raises(ValueError):
        generate_departures(Flow("a", "b", 10.0), 0.0, seed=1)
    with pytest.raises(ValueError):
        generate_departures(Flow("a", "b", 10.0), 100.0, seed=1, mode="weird")
    # The mode is checked even when the flow has no demand to spread.
    with pytest.raises(ValueError, match="departure mode"):
        generate_departures(Flow("a", "b", 0.0), 100.0, seed=1, mode="weird")
    with pytest.raises(ValueError):
        Flow("a", "b", -1.0)
    for vph in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="vph"):
            Flow("a", "b", vph)
    for speed in (-5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="depart_speed"):
            Flow("a", "b", 10.0, speed)


@pytest.mark.parametrize("mode", ["poisson", "uniform"])
def test_negative_seed_is_refused_naming_it(grid3, mode):
    # numpy refuses a negative seed in poisson mode only, and not by name.
    flow = Flow("bw-1:n1-0", "n1-2:be-1", 60.0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        generate_departures(flow, 100.0, seed=-1, mode=mode)
    with pytest.raises(ValueError, match=r"^seed must be"):
        Simulation(grid3, flows=(flow,), seed=-1, departure_mode=mode)
    with pytest.raises(ValueError, match=r"^seed must be"):
        Simulation(grid3, schedule=[(0.0, 0, flow.origin, flow.destination, 0.0)], seed=-1)


# -- scenario catalog ------------------------------------------------------


def test_scenario_ladder_arithmetic():
    cat = scenario_catalog(100.0, 0.5, [("a", "b")])
    assert cat[0].flows[0].vph == 100.0
    assert cat[10].flows[0].vph == 600.0
    assert len(cat) == 11


def test_scenario_monotone_ordering():
    cat = scenario_catalog(40.0, 0.25, [("a", "b"), ("c", "d")])
    for prev, nxt in zip(cat, cat[1:]):
        assert all(p.vph < n.vph for p, n in zip(prev.flows, nxt.flows))


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario_catalog(0.0, 0.5, [("a", "b")])
    with pytest.raises(ValueError):
        DemandScenario(12, ())


# -- engine dynamics -------------------------------------------------------


def test_single_vehicle_kinematics_oracle():
    # One vehicle on an empty approach with permanent green: traversal
    # time equals the accelerate-then-cruise closed form within one step.
    net = build_grid(1, 1, 500.0, 1, 50.0, 13.89)
    # South->north through keeps phase 0 green for the whole run.
    flow = Flow("bs-0:n0-0", "n0-0:bn-0", 1.0)
    schedule = [(0.0, 0, flow.origin, flow.destination, 0.0)]
    sim = Simulation(
        net,
        schedule=schedule,
        algorithm="baseline",
        clock=SimClock(dt=1.0, horizon=120.0, warmup=0.0, cooldown=1.0),
    )
    params = VehicleParams()
    sim.run()
    assert len(sim._control_delays) == 1
    t_out, measured_delay = sim._control_delays[0]

    # Closed-form oracle for distance from the insertion front position
    # to the stop line, with bounded acceleration and a speed cap.
    distance = 500.0 - params.length
    v, a = 13.89, params.max_accel
    t_accel = v / a
    d_accel = v * v / (2 * a)
    closed_form = t_accel + (distance - d_accel) / v
    assert abs(t_out - closed_form) <= 1.0
    assert measured_delay == pytest.approx(t_out - 500.0 / 13.89)


def test_speed_never_exceeds_free_flow():
    net = build_grid(1, 1, 400.0, 1, 50.0, 13.89)
    schedule = [(0.0, 0, "bs-0:n0-0", "n0-0:bn-0", 0.0)]
    sim = Simulation(
        net, schedule=schedule,
        clock=SimClock(dt=1.0, horizon=60.0, warmup=0.0, cooldown=0.0),
    )
    peak = 0.0
    for _ in range(60):
        sim.step()
        for veh in vehicles(sim):
            assert 0.0 <= veh.speed <= 13.89 + 1e-12
            peak = max(peak, veh.speed)
    assert peak == pytest.approx(13.89)


def test_red_stop_keeps_vehicle_before_line():
    # A continuous NS stream holds the green, so an eastbound vehicle
    # faces red and must come to rest short of the stop line.
    net = build_grid(1, 1, 300.0, 1, 50.0, 13.89)
    schedule = [(float(k), 0, "bs-0:n0-0", "n0-0:bn-0", 13.89) for k in range(0, 120, 2)]
    schedule.append((0.0, 1, "bw-0:n0-0", "n0-0:be-0", 0.0))
    sim = Simulation(
        net, schedule=schedule, algorithm="baseline",
        clock=SimClock(dt=1.0, horizon=120.0, warmup=0.0, cooldown=0.0),
    )
    sim.run_until(100.0)
    eastbound = [v for v in vehicles(sim) if v.vid == "f1.0"]
    assert eastbound, "vehicle left the network under red"
    veh = eastbound[0]
    assert veh.speed == 0.0
    assert veh.position < 300.0


def test_conservation_every_step(grid3):
    flows = tuple(Flow(o, d, 150.0) for o, d in grid3.straight_od_pairs())
    sim = Simulation(
        grid3, flows=flows, seed=3,
        clock=SimClock(dt=1.0, horizon=400.0, warmup=0.0, cooldown=0.0),
    )
    for _ in range(400):
        sim.step()
        assert sim.inserted - sim.exited == sim.vehicles_on_network()


def test_no_collisions_under_congestion(grid3):
    params = VehicleParams()
    flows = tuple(Flow(o, d, 500.0) for o, d in grid3.straight_od_pairs())
    sim = Simulation(
        grid3, flows=flows, seed=1,
        clock=SimClock(dt=1.0, horizon=300.0, warmup=0.0, cooldown=0.0),
    )
    for _ in range(300):
        sim.step()
        for state in sim._state_list:
            lanes = list(state.lanes)
            if state.pocket is not None:
                lanes.append(state.pocket)
            for lane in lanes:
                for leader, follower in zip(lane, lane[1:]):
                    gap = (leader.position - params.length) - follower.position
                    assert gap >= params.min_gap - 1e-9


def test_determinism_bit_identical_logs(grid3):
    flows = tuple(Flow(o, d, 200.0) for o, d in grid3.straight_od_pairs())

    def run():
        rows = []
        sim = Simulation(
            grid3, flows=flows, algorithm="dt1", seed=11,
            clock=SimClock(dt=1.0, horizon=600.0, warmup=0.0, cooldown=0.0),
            trajectory_sink=rows.append,
        )
        result = sim.run()
        return rows, list(sim.signal_lines()), result.to_dict()

    rows_a, signals_a, result_a = run()
    rows_b, signals_b, result_b = run()
    assert rows_a == rows_b
    assert signals_a == signals_b
    assert result_a == result_b


@pytest.mark.parametrize("memo_limit", [None, 4], ids=["memo", "memo-cleared"])
def test_trajectory_writer_matches_per_row_repr(grid3, monkeypatch, memo_limit):
    # The memoised writer gives the bytes of one repr per value, one sink
    # call per step that has rows; a tiny memo limit runs its clear path.
    if memo_limit is not None:
        monkeypatch.setattr(traffic, "_REPR_MEMO_LIMIT", memo_limit)
    reference, steps_with_rows = [], [0]
    tick = Simulation._tick_signals

    def record_then_tick(self, k):
        # Called right after the step's rows are logged.
        t = k * self.dt
        rows = [
            f"{t!r},{veh.vid},{veh.route[veh.route_index]},{veh.position!r},{veh.speed!r},"
            f"{veh.ledger.waiting!r},{veh.ledger.accumulated!r}\n"
            for veh in vehicles(self)
        ]
        reference.extend(rows)
        steps_with_rows[0] += bool(rows)
        return tick(self, k)

    monkeypatch.setattr(Simulation, "_tick_signals", record_then_tick)
    pairs = [(o, d) for o in grid3.peripheral_entries() for d in grid3.peripheral_exits()]
    # A -0.0 departure speed is logged as 0.0.
    flows = [Flow(o, d, 90.0, -0.0 if i % 2 else 0.0) for i, (o, d) in enumerate(pairs[::5])]
    chunks = []
    sim = Simulation(
        grid3, flows=flows, algorithm="dt2", seed=4,
        clock=SimClock(dt=0.5, horizon=600.0, warmup=0.0, cooldown=0.0),
        trajectory_sink=chunks.append,
    )
    sim.run()
    assert "".join(chunks).splitlines(keepends=True) == reference
    assert len(chunks) == steps_with_rows[0] > 0
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "-0.0" not in {f for row in reference for f in row[:-1].split(",")[3:]}
    assert len(sim._repr_memo) <= (memo_limit or traffic._REPR_MEMO_LIMIT)


@pytest.mark.parametrize("dt", [1.0, 0.5, 0.25, 0.2])
def test_signals_writer_matches_per_step_timers(grid3, dt):
    # signals.csv is written from signal_lines(), which expands the phase
    # changes of the two event-ticked timers, the subject's and the one the
    # fixed-time intersections share.  The reference ticks one timer per
    # intersection on every step instead: the subject's replays the
    # engine's decisions, at the steps the engine took them, across a swap;
    # the fixed ones run past their first green, which runs longer than
    # the later ones, into the repeating cycle.
    flows = [Flow(o, d, 300.0) for o, d in grid3.straight_od_pairs()]
    sim = Simulation(
        grid3, flows=flows, algorithm="baseline", seed=5,
        clock=SimClock(dt=dt, horizon=300.0, warmup=0.0, cooldown=0.0),
    )
    decisions = []
    decide = sim._subject_decision

    def recording_decision():
        phase = decide()
        decisions.append((sim._step_index, phase))
        return phase

    sim._subject_decision = recording_decision
    sim.run_until(150.0)
    sim.set_algorithm("dt1", "swap")
    sim.run()
    assert [e["to"] for e in sim.swap_events] == ["dt1"]
    n_steps = sim.clock.n_steps
    subject = grid3.subject_intersection
    assert len({phase for _, node, phase, _, _ in signal_rows(sim) if node == subject}) > 2
    # Each log holds one interval per phase change, and the fixed timer
    # starts at least three greens of each of its two phases.
    logs = [sim._subject_timer.log, sim._fixed_timer.log]
    assert all(a[1] != b[1] for log in logs for a, b in zip(log, log[1:]))
    fixed_greens = [phase for _, phase, _ in logs[1] if phase in GREEN_PHASES]
    assert min(fixed_greens.count(0), fixed_greens.count(2)) >= 3

    replay = iter(decisions)

    def replayed_decision():
        step, phase = next(replay)
        assert step == k
        return phase

    own, fixed = ControllerTimer(dt), ControllerTimer(dt)
    period, half = round(2 * traffic.FIXED_SPLIT / dt), round(traffic.FIXED_SPLIT / dt)
    reference = []
    for k in range(n_steps):
        t = k * dt
        own_row = own.tick(k, replayed_decision), own.stage, own.green_elapsed
        fixed_phase = fixed.tick(k, lambda: 0 if k % period < half else 2)
        fixed_row = fixed_phase, fixed.stage, fixed.green_elapsed
        for node in sorted(grid3.nodes):
            phase, stage, green = own_row if node == subject else fixed_row
            reference.append(f"{t!r},{node},{phase},{stage},{green!r}\n")
    assert next(replay, None) is None
    lines = list(sim.signal_lines())
    assert len(lines) == n_steps
    assert all(line.count("\n") == len(grid3.nodes) for line in lines)
    assert "".join(lines).splitlines(keepends=True) == reference


@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_signal_lines_read_mid_run(grid3, dt):
    # Read after run_until(t), signal_lines() gives the first t / dt lines
    # of the finished run: the subject's last interval is cut at the step
    # run so far, inside a green and inside a transition.
    def sim():
        flows = [Flow(o, d, 300.0) for o, d in grid3.straight_od_pairs()]
        return Simulation(
            grid3, flows=flows, algorithm="dt2", seed=3,
            clock=SimClock(dt=dt, horizon=300.0, warmup=0.0, cooldown=0.0),
        )

    finished = sim()
    finished.run()
    lines = list(finished.signal_lines())
    n_steps = finished.clock.n_steps
    subject = grid3.subject_intersection
    own = [row[2:4] for row in signal_rows(finished) if row[1] == subject]
    # A cut at step k falls inside an interval when step k shows what step
    # k - 1 does; the last such cut in a green and in a yellow.
    inside = {
        stage: max(k for k in range(1, n_steps) if own[k - 1] == own[k] and own[k][1] == stage)
        for stage in ("green", "yellow")
    }
    running = sim()
    for k in sorted({0, 1, *inside.values(), n_steps}):
        running.run_until(k * dt)
        assert list(running.signal_lines()) == lines[:k], k


def test_metrics_window_excludes_warmup_and_cooldown(grid3):
    flows = tuple(Flow(o, d, 250.0) for o, d in grid3.straight_od_pairs())
    clock = SimClock(dt=1.0, horizon=3600.0, warmup=600.0, cooldown=600.0)
    assert clock.window == (600.0, 3000.0)
    sim = Simulation(grid3, flows=flows, seed=2, clock=clock)
    result = sim.run()
    assert result.window == (600.0, 3000.0)
    assert all(600.0 <= t <= 3000.0 for t, _ in result.control_delays)
    for rows in result.movement_stopped_delays.values():
        assert all(600.0 <= t <= 3000.0 for t, _ in rows)
    # Raw engine records extend outside the window.
    assert any(t < 600.0 or t > 3000.0 for t, _ in sim._control_delays)


def test_deferred_insertion_retries():
    # A short single-lane entry at an absurd rate forces deferrals.
    net = build_grid(1, 1, 120.0, 1, 30.0, 13.89)
    flows = (Flow("bw-0:n0-0", "n0-0:be-0", 7200.0),)
    sim = Simulation(
        net, flows=flows, seed=4,
        clock=SimClock(dt=1.0, horizon=120.0, warmup=0.0, cooldown=0.0),
    )
    deferred_seen = False
    for _ in range(120):
        sim.step()
        due = sum(
            1 for q in sim._pending.values() for p in q if p.depart_time <= sim.t - 1.0
        )
        if due:
            deferred_seen = True
        assert sim.inserted - sim.exited == sim.vehicles_on_network()
    assert deferred_seen
    result = sim.result()
    assert result.mean_depart_delay > 0.0


def test_left_turners_use_pocket(grid3):
    # A left-turning route through the subject must commit to the pocket.
    flow = Flow("bw-1:n1-0", "n2-1:bn-1", 300.0)
    sim = Simulation(
        grid3, flows=(flow,), algorithm="dt1", seed=5,
        clock=SimClock(dt=1.0, horizon=600.0, warmup=0.0, cooldown=0.0),
    )
    pocket_seen = False
    for _ in range(600):
        sim.step()
        state = sim._states["n1-0:n1-1"]
        if state.pocket:
            pocket_seen = True
            for veh in state.pocket:
                assert veh.turns[veh.route_index] == "left"
                assert veh.position >= state.pocket_start - 1e-9
    assert pocket_seen
    result = sim.result()
    assert result.exited > 0 or sim.vehicles_on_network() > 0


def test_roomiest_lane_takes_the_furthest_tail_and_the_first_lane_on_a_tie(grid3):
    # The lane that insertion and crossing both fill: the one whose last
    # vehicle's rear lies furthest along, an empty lane counting as the
    # furthest.  The golden cases run one lane per segment, so this pins
    # the rule for two.
    from types import SimpleNamespace

    sim = Simulation(grid3, schedule=[], clock=SimClock(horizon=60.0, warmup=0.0, cooldown=0.0))
    st = sim._states["bw-1:n1-0"]
    first, second = st.lanes
    veh_len = sim.params.length

    def roomiest():
        rear, lane = sim._roomiest_lane(st)
        return rear, next(i for i, x in enumerate(st.lanes) if x is lane)

    assert roomiest() == (st.length + 1e9, 0)  # both empty: the first
    first.append(SimpleNamespace(position=30.0))
    assert roomiest() == (st.length + 1e9, 1)
    second.append(SimpleNamespace(position=20.0))
    assert roomiest() == (30.0 - veh_len, 0)
    second[-1] = SimpleNamespace(position=40.0)
    assert roomiest() == (40.0 - veh_len, 1)
    first[-1] = SimpleNamespace(position=40.0)  # equal rears: the first
    assert roomiest() == (40.0 - veh_len, 0)


def test_spillback_blocks_crossing_on_green():
    # Saturate the short middle segment of a 1x2 grid: upstream vehicles
    # must hold at the line even on green, without ever overlapping.
    net = build_grid(1, 2, 150.0, 1, 40.0, 13.89)
    flows = (
        Flow("bw-0:n0-0", "n0-1:be-0", 2400.0),
        Flow("bs-1:n0-1", "n0-1:bn-1", 1600.0),  # steals the subject's green
    )
    sim = Simulation(
        net, flows=flows, algorithm="baseline", seed=8,
        clock=SimClock(dt=1.0, horizon=300.0, warmup=0.0, cooldown=0.0),
    )
    from signaltwin.network import Movement
    from signaltwin.signals import MOVEMENT_INDEX
    from signaltwin.traffic import A_GREEN

    entry = sim._states["bw-0:n0-0"]
    blocked_on_green = False
    aspects_read = 0
    for _ in range(300):
        sim.step()
        assert sim.inserted - sim.exited == sim.vehicles_on_network()
        # The aspect row the sweep read for the entry segment in this step.
        display = entry.signal.aspect_row
        assert display is not None
        aspects_read += 1
        lane = entry.lanes[0]
        if lane and display[MOVEMENT_INDEX[Movement.EBT]] == A_GREEN:
            front = lane[0]
            if front.position > entry.length - 2.0 and front.speed == 0.0:
                blocked_on_green = True
    assert aspects_read == 300
    assert blocked_on_green, "expected green-blocked spillback at the entry"


def test_engine_runs_with_fractional_dt(grid3):
    flows = (Flow("bw-1:n1-0", "n1-2:be-1", 300.0),)
    sim = Simulation(
        grid3, flows=flows, algorithm="dt1", seed=2,
        clock=SimClock(dt=0.5, horizon=300.0, warmup=50.0, cooldown=50.0),
    )
    result = sim.run()
    assert result.exited > 0
    assert sim.inserted - sim.exited == sim.vehicles_on_network()
    # Subject transitions stay exact: yellows 2 s = 4 steps of 0.5 s.
    rows = [
        (t, phase, stage)
        for t, node, phase, stage, _ in signal_rows(sim)
        if node == "n1-1"
    ]
    runs = []
    for t, phase, stage in rows:
        if runs and runs[-1][1:] == [phase, stage]:
            runs[-1][0] += 1
        else:
            runs.append([1, phase, stage])
    yellow_lengths = {n for n, _, stage in runs[:-1] if stage == "yellow"}
    red_lengths = {n for n, _, stage in runs[:-1] if stage == "all_red"}
    assert yellow_lengths <= {4}
    assert red_lengths <= {2}


def test_clock_validation():
    with pytest.raises(ValueError):
        SimClock(dt=0.3)
    with pytest.raises(ValueError):
        SimClock(dt=1.0, horizon=100.0, warmup=80.0, cooldown=40.0)
    with pytest.raises(ValueError):
        SimClock(dt=-1.0)


def test_vehicle_must_fit_on_the_shortest_segment(grid3):
    # A vehicle and its minimum gap may fill the shortest segment exactly.
    shortest = min(seg.length for seg in grid3.segments.values())
    Simulation(grid3, vehicle=VehicleParams(length=shortest - 2.5))
    with pytest.raises(ValueError, match=r"^length \(.* is longer than the shortest segment"):
        Simulation(grid3, vehicle=VehicleParams(length=shortest - 2.0))


def test_simulation_rejects_flow_and_schedule_mix(grid3):
    with pytest.raises(ValueError):
        Simulation(
            grid3,
            flows=(Flow("bw-1:n1-0", "n1-2:be-1", 10.0),),
            schedule=[(0.0, 0, "bw-1:n1-0", "n1-2:be-1", 0.0)],
        )


# -- fixed-time timer ------------------------------------------------------


@pytest.mark.parametrize(
    "dt, prefix, cycle", [(1.0, 34, 60), (0.5, 67, 120), (0.25, 133, 240), (0.2, 166, 300)]
)
def test_fixed_plan_table_matches_a_running_timer(grid3, dt, prefix, cycle):
    # The fixed-time intersections' timer, as the engine ticks it only at
    # its due steps, displays bit for bit what a timer ticked on every step
    # does.  That timer's state (phase, pending target and step counts)
    # repeats every ``cycle`` steps from step ``prefix`` on; its rows
    # repeat from one step earlier, where it still holds the first green's
    # length, which is longer than the later greens'.
    sim = Simulation(
        grid3, flows=(), algorithm="baseline", seed=0,
        clock=SimClock(dt=dt, horizon=240.0, warmup=0.0, cooldown=0.0),
    )
    sim.run()
    stop = sim.clock.n_steps
    assert stop >= prefix + 3 * cycle
    log = sim._fixed_timer.log
    rows = list(interval_rows(log, dt, stop))
    assert len(rows) == stop
    period, split = round(2 * traffic.FIXED_SPLIT / dt), round(traffic.FIXED_SPLIT / dt)
    timer = ControllerTimer(dt)
    states = []  # the timer's state before each step's tick
    for k in range(stop):
        states.append(
            (timer.current_phase, timer.pending_target, timer._stage_steps, timer._green_steps)
        )
        phase = timer.tick(k, lambda: 0 if k % period < split else 2)
        assert rows[k] == (phase, timer.stage, timer.green_elapsed), k
        assert rows[k][2].hex() == timer.green_elapsed.hex(), k  # bit for bit
    assert all(states[k] == states[k + cycle] for k in range(prefix, stop - cycle))
    assert states[prefix - 1] != states[prefix - 1 + cycle]
    assert all(rows[k] == rows[k + cycle] for k in range(prefix - 1, stop - cycle))
    assert rows[prefix - 2] != rows[prefix - 2 + cycle]
    lengths = [b[0] - a[0] for a, b in zip(log, log[1:]) if a[1] in GREEN_PHASES]
    assert lengths[0] > max(lengths[1:])


# -- insertion shortcuts ----------------------------------------------------


class _InsertEveryStep(Simulation):
    """The engine with the insertion rule that looks at every origin on
    every step, without the skip of steps with nothing due."""

    def _insert_departures(self, t):
        params = self.params
        min_entry = params.length + params.min_gap
        for origin, queue in self._pending.items():
            st = self._states[origin]
            while queue and queue[-1].depart_time <= t + 1e-9:
                best_lane = None
                best_rear = -1.0
                for lane in st.lanes:
                    rear = lane[-1].position - params.length if lane else st.length + 1e9
                    if rear > best_rear:
                        best_rear = rear
                        best_lane = lane
                if best_rear < min_entry:
                    break
                veh = queue.pop()
                veh.entry_time = t
                veh.speed = min(veh.speed, st.vff)
                best_lane.append(veh)
                self._occupied.add(st.index)
                self.inserted += 1
                self._pending_count -= 1
                self._depart_delay_sum += t - veh.depart_time
                self.flow_insertions[veh.flow_index].append(t)


@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_insertion_skip_keeps_the_every_step_rule(dt):
    # A single-lane entry: five departures at 0 block it for several steps.
    net = build_grid(1, 1, 200.0, 1, 40.0, 13.89)
    west, south = "bw-0:n0-0", "bs-0:n0-0"
    exit_east, exit_north = "n0-0:be-0", "n0-0:bn-0"
    schedule = [(0.0, 0, west, exit_east, 0.0)] * 5 + [
        (3.0, 1, south, exit_north, 0.0),  # exactly on a step
        (3.0 + 1e-10, 2, west, exit_north, 0.0),  # 1e-10 after one
        (7.3, 1, south, exit_north, 0.0),  # between steps
        (7.3, 2, west, exit_north, 0.0),
        (60.0 + 1e-10, 1, south, exit_north, 0.0),  # the only one due at 60
        (40.0 + dt / 2, 0, west, exit_east, 0.0),
        (90.0, 1, south, exit_north, 5.0),
        (119.0 + dt / 2, 2, west, exit_north, 0.0),  # after the last step
    ]
    clock = SimClock(dt=dt, horizon=119.0 + dt, warmup=0.0, cooldown=0.0)
    sims = [cls(net, schedule=schedule, seed=3, clock=clock)
            for cls in (Simulation, _InsertEveryStep)]
    blocked_steps = 0
    for _ in range(clock.n_steps):
        for sim in sims:
            sim.step()
        fast, every = ((sim.inserted, sim._pending_count, sim.exited) for sim in sims)
        assert fast == every
        due = sum(p.depart_time <= sims[1].t - dt + 1e-9
                  for q in sims[1]._pending.values() for p in q)
        blocked_steps += due > 0
    assert blocked_steps >= 3
    assert sims[0].flow_insertions == sims[1].flow_insertions
    assert sims[0].result().to_dict() == sims[1].result().to_dict()
    assert sims[0].result().deferred_insertions == 1
    assert sims[0]._next_due == 119.0 + dt / 2
