"""Engine invariants checked after every step on random small grids.

The vehicle sweep is hand-inlined for speed, so these properties guard it
beyond the fixed examples in test_traffic.py: conservation, the minimum
gap to the leader, position and speed bounds, and monotone stopped-delay
ledgers.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from signaltwin.controllers import ALGORITHMS
from signaltwin.network import build_grid
from signaltwin.traffic import Flow, SimClock, Simulation, VehicleParams, scenario_catalog

HORIZON = 600.0


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
    # Turning flows exercise the left-turn pockets and permissive lefts.
    pairs = [(o, d) for o in net.peripheral_entries() for d in net.peripheral_exits()]
    for origin, destination in data.draw(
        st.lists(st.sampled_from(pairs), max_size=4, unique=True), label="turning"
    ):
        flows.append(Flow(origin, destination, 200.0))
    params = VehicleParams()
    sim = Simulation(
        net, flows=flows, algorithm=algorithm, seed=seed,
        clock=SimClock(dt=dt, horizon=HORIZON, warmup=0.0, cooldown=0.0),
        vehicle=params,
    )
    last_accumulated: dict[str, float] = {}
    for _ in range(sim.clock.n_steps):
        sim.step()
        assert sim.inserted - sim.exited == sim.vehicles_on_network()
        for state in sim._state_list:
            for lane in state.sweep:
                leader = None
                for veh in lane:
                    assert 0.0 <= veh.position <= state.length, (veh.vid, veh.position)
                    assert 0.0 <= veh.speed <= state.vff, (veh.vid, veh.speed)
                    if leader is not None:
                        gap = (leader.position - leader.length) - veh.position
                        assert gap >= params.min_gap - 1e-9, (veh.vid, gap)
                    acc = veh.ledger.accumulated
                    assert acc >= last_accumulated.get(veh.vid, 0.0), veh.vid
                    last_accumulated[veh.vid] = acc
                    leader = veh
