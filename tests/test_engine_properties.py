"""Engine invariants checked after every step on random small grids.

The vehicle sweep is hand-inlined for speed, so these properties guard it
beyond the fixed examples in test_traffic.py: conservation, the minimum
gap to the leader, position and speed bounds, and monotone stopped-delay
ledgers that advance each step exactly as ``delay.update_waiting`` does
(the sweep keeps an inline copy of that rule).  They also guard the
shortcuts of the step: the set of occupied segments that the sweep
visits, the event-ticked timer that every fixed-time intersection
shares, against a standalone timer ticked every step, and the per-vehicle
fields the sweep reads in place of the route tables (the current
stop-line movement and left-turn flag), and that a vehicle that crossed
in a step is not moved again in it.
Every decision of the subject's controller, under each algorithm, must
equal ``controllers.decide`` over ``approach_density`` and
``average_approach_delay``, which the engine computes in one pass of its own.
No logged value is ever ``-0.0``, which the trajectory writer's repr memo
could not tell from ``0.0``, and a vehicle's cached row key names its
current segment: set back on every crossing, and cleared when it exits.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from signaltwin.controllers import (
    ALGORITHMS,
    DecisionInput,
    approach_density,
    decide,
    meters_to_miles,
)
from signaltwin.delay import (
    DelayLedger,
    LedgerCorruptionError,
    average_approach_delay,
    update_waiting,
)
from signaltwin.network import ALL_MOVEMENTS, build_grid
from signaltwin.signals import ControllerTimer
from signaltwin.traffic import (
    FIXED_SPLIT,
    Flow,
    SimClock,
    Simulation,
    Vehicle,
    VehicleParams,
    scenario_catalog,
)
from test_traffic import signal_rows

HORIZON = 600.0


def _reference_values(sim):
    """The subject's eight decision values under ``sim.algorithm``, from
    ``approach_density`` and ``average_approach_delay``, in ``ALL_MOVEMENTS`` order."""
    net = sim.network
    values = {}
    for seg_id in net.incoming(net.subject_intersection):
        seg, state = net.segments[seg_id], sim._states[seg_id]
        through = [veh.ledger for lane in state.lanes for veh in lane]
        pocket = [veh.ledger for veh in state.pocket]
        if sim.algorithm == "baseline":
            values[seg.movement] = approach_density(
                len(through), seg.lane_count, meters_to_miles(seg.length))
            values[seg.left_movement] = approach_density(
                len(pocket), 1, meters_to_miles(seg.length - seg.pocket_start))
        else:
            values[seg.movement] = average_approach_delay(seg_id, through, sim.algorithm).average
            values[seg.left_movement] = average_approach_delay(
                seg_id, pocket, sim.algorithm).average
    return tuple(values[m] for m in ALL_MOVEMENTS)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=1, max_value=3),
    dt=st.sampled_from([0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    algorithm=st.sampled_from(ALGORITHMS),
    scenario=st.integers(min_value=1, max_value=11),
    data=st.data(),
)
def test_engine_invariants_every_step(rows, cols, dt, seed, algorithm, scenario, data):
    net = build_grid(rows, cols, 300.0, 2, 60.0, 13.89)
    flows = list(scenario_catalog(60.0, 0.25, net.straight_od_pairs())[scenario - 1].flows)
    # Turning flows exercise the left-turn pockets and permissive lefts; a
    # pair may appear in one flow only.
    straight = set(net.straight_od_pairs())
    pairs = [
        (o, d) for o in net.peripheral_entries() for d in net.peripheral_exits()
        if (o, d) not in straight
    ]
    for origin, destination in data.draw(
        st.lists(st.sampled_from(pairs), max_size=4, unique=True), label="turning"
    ):
        depart_speed = data.draw(st.sampled_from([0.0, -0.0]), label="depart_speed")
        flows.append(Flow(origin, destination, 200.0, depart_speed))
    params = VehicleParams()
    sim = Simulation(
        net, flows=flows, algorithm=algorithm, seed=seed,
        clock=SimClock(dt=dt, horizon=HORIZON, warmup=0.0, cooldown=0.0),
        vehicle=params, trajectory_sink=lambda rows: None,
    )
    # A vehicle is logged first as inserted: at position params.length,
    # with its departure speed capped by vff and a fresh ledger.
    for queue in sim._pending.values():
        for pending in queue:
            assert math.copysign(1.0, pending.speed) > 0, pending.vid
    # Vehicle id -> (waiting, accumulated) after the previous step.
    last_ledgers: dict[str, tuple[float, float]] = {}
    # Each vehicle that crossed into a new segment in this step, with its
    # state as the crossing left it; the sweep must not move it again.
    crossed = []
    cross = sim._cross

    def recording_cross(veh, *args):
        route_index = veh.route_index
        moved = cross(veh, *args)
        if veh.route_index != route_index:
            led = veh.ledger
            crossed.append((veh, veh.position, veh.speed, led.waiting, led.accumulated))
        return moved

    sim._cross = recording_cross
    # Every decision equals decide() over the observation functions; the
    # algorithm is swapped twice in the run, so each example runs all three.
    decisions = {algorithm: 0 for algorithm in ALGORITHMS}
    subject_decision = sim._subject_decision

    def checked_decision():
        phase = subject_decision()
        expected = _reference_values(sim)
        assert [v.hex() for v in sim._decision_values()] == [v.hex() for v in expected]
        assert phase == decide(DecisionInput(expected)).proposed_phase
        decisions[sim.algorithm] += 1
        return phase

    sim._subject_decision = checked_decision
    swaps = {sim.clock.n_steps * i // 3: ALGORITHMS[(ALGORITHMS.index(algorithm) + i) % 3]
             for i in (1, 2)}
    # A standalone timer running the fixed two-phase plan.
    fixed = ControllerTimer(dt)
    cycle, split = round(2 * FIXED_SPLIT / dt), round(FIXED_SPLIT / dt)
    fixed_rows = []
    for k in range(sim.clock.n_steps):
        if k in swaps:
            sim.set_algorithm(swaps[k])
        sim.step()
        assert sim.inserted - sim.exited == sim.vehicles_on_network()
        for veh, *state in crossed:
            led = veh.ledger
            assert [veh.position, veh.speed, led.waiting, led.accumulated] == state, veh.vid
        crossed.clear()
        occupied = {state.index for state in sim._state_list if state.vehicle_count()}
        assert sim._occupied == occupied
        phase = fixed.tick(k, lambda: 0 if k % cycle < split else 2)
        fixed_rows.append((k * dt, phase, fixed.stage, fixed.green_elapsed))
        for state in sim._state_list:
            for lane in state.sweep:
                leader = None
                for veh in lane:
                    route_index = veh.route_index
                    assert veh.stop_movement == veh.stop_movements[route_index], veh.vid
                    assert veh.turns_left == (veh.turns[route_index] == "left"), veh.vid
                    assert 0.0 <= veh.position <= state.length, (veh.vid, veh.position)
                    assert 0.0 <= veh.speed <= state.vff, (veh.vid, veh.speed)
                    if leader is not None:
                        gap = (leader.position - params.length) - veh.position
                        assert gap >= params.min_gap - 1e-9, (veh.vid, gap)
                    # A vehicle inserted in this step starts from a fresh ledger.
                    waiting, acc = last_ledgers.get(veh.vid, (0.0, 0.0))
                    ledger = veh.ledger
                    assert ledger.accumulated >= acc, veh.vid
                    expected = update_waiting(DelayLedger(waiting, acc), veh.speed, dt)
                    assert (ledger.waiting, ledger.accumulated) == (
                        expected.waiting, expected.accumulated
                    ), veh.vid
                    last_ledgers[veh.vid] = (ledger.waiting, ledger.accumulated)
                    for x in (veh.position, veh.speed, ledger.waiting, ledger.accumulated):
                        assert x != 0.0 or math.copysign(1.0, x) > 0, (veh.vid, x)
                    assert veh.row_key in (None, f",{veh.vid},{state.seg_id},"), veh.vid
                    leader = veh
    assert all(decisions.values()), decisions
    # Every node but the subject shows the standalone timer's row in each step.
    rows = signal_rows(sim)
    nodes = sorted(net.nodes)
    assert [row[1] for row in rows] == nodes * sim.clock.n_steps
    others = [(t, *state) for t, node, *state in rows if node != net.subject_intersection]
    assert others == [row for row in fixed_rows for _ in range(len(nodes) - 1)]
    # A vehicle off the network, pending or exited, holds no row key.
    on_network = {veh.vid for state in sim._state_list for lane in state.sweep for veh in lane}
    for veh in sim.departure_schedule:
        assert veh.vid in on_network or veh.row_key is None, veh.vid


# A delay ledger that ``vehicle_delay_dt1`` accepts: accumulated >= entry.
_ledgers = st.builds(
    lambda entry, extra, waiting, carried: DelayLedger(waiting, entry + extra, entry, carried),
    *(st.floats(min_value=0.0, max_value=900.0, allow_subnormal=False) for _ in range(4)),
)


@settings(max_examples=60, deadline=None)
@given(
    lane_count=st.integers(min_value=1, max_value=3),
    length=st.floats(min_value=50.0, max_value=2000.0),
    pocket_share=st.floats(min_value=0.01, max_value=0.9),
    data=st.data(),
)
def test_decision_values_are_the_observation_functions(lane_count, length, pocket_share, data):
    # The engine divides by lane-miles computed once; each value must equal
    # approach_density and average_approach_delay bit for bit.
    net = build_grid(3, 3, length, lane_count, length * pocket_share, 13.89)
    sim = Simulation(net, schedule=[], clock=SimClock(horizon=60.0, warmup=0.0, cooldown=0.0))
    params = VehicleParams()
    for seg_id in net.incoming(net.subject_intersection):
        for lane in sim._states[seg_id].sweep:
            for ledger in data.draw(st.lists(_ledgers, max_size=6), label=seg_id):
                veh = Vehicle(f"v{len(lane)}", (seg_id,), ("exit",), (0,), params, 0.0, 0.0)
                veh.ledger = ledger
                lane.append(veh)
    for algorithm in ALGORITHMS:
        sim.algorithm = algorithm
        assert [v.hex() for v in sim._decision_values()] == [
            v.hex() for v in _reference_values(sim)
        ], algorithm


@pytest.mark.parametrize("variant", ["dt1", "dt2"])
@pytest.mark.parametrize("in_pocket", [False, True])
def test_decision_input_refuses_a_corrupted_ledger(variant, in_pocket):
    net = build_grid(3, 3, 300.0, 2, 60.0, 13.89)
    sim = Simulation(net, schedule=[], algorithm=variant,
                     clock=SimClock(horizon=60.0, warmup=0.0, cooldown=0.0))
    state = sim._states[net.incoming(net.subject_intersection)[-1]]
    veh = Vehicle("v0", (state.seg_id,), ("exit",), (0,), VehicleParams(), 0.0, 0.0)
    veh.ledger = DelayLedger(accumulated=3.0, entry_accumulated=4.0)  # below entry
    (state.pocket if in_pocket else state.lanes[0]).append(veh)
    with pytest.raises(LedgerCorruptionError, match="below entry snapshot"):
        sim._decision_values()


def test_a_corrupted_ledger_fails_the_step_that_decides():
    # A vehicle held at a red light on a subject approach, with a ledger
    # below its entry snapshot, fails the first decision (at step 10).
    net = build_grid(3, 3, 300.0, 2, 60.0, 13.89)
    sim = Simulation(net, schedule=[], algorithm="dt1",
                     clock=SimClock(horizon=60.0, warmup=0.0, cooldown=0.0))
    seg_id = next(s for s in net.incoming(net.subject_intersection)
                  if net.segments[s].movement.value == "EBT")
    state = sim._states[seg_id]
    veh = Vehicle("v0", (seg_id,), ("exit",), (0,), VehicleParams(), 0.0, 0.0)
    veh.ledger = DelayLedger(accumulated=3.0, entry_accumulated=1000.0)
    state.lanes[0].append(veh)
    sim._occupied.add(state.index)
    for _ in range(10):
        sim.step()
    with pytest.raises(LedgerCorruptionError, match="below entry snapshot"):
        sim.step()
