"""The package's public names.

Removing or renaming one breaks callers, so a change to this list must be
deliberate and listed in CHANGES.md.
"""

import signaltwin

PUBLIC_NAMES = [
    "ALGORITHMS", "ApproachSegment", "ControllerTimer", "Decision", "DecisionInput",
    "DelayLedger", "DemandEstimate", "DemandPhase", "DemandScenario", "Flow", "Movement",
    "Network", "SimClock", "Simulation", "SimulationJob", "SimulationResult", "TwinSettings",
    "VehicleParams", "aasd", "approach_density", "average_approach_delay", "baseline_decide",
    "build_grid", "compare", "control_delay_summary", "dsd_histogram", "dt1_decide",
    "dt2_decide", "forecast_demands", "generate_departures", "live_loop", "load_network",
    "los_from_control_delay", "match_demand", "on_approach_transition", "phase_for_movement",
    "run_parallel", "save_network", "scenario_catalog", "segment_delay", "select_controller",
    "shortest_path", "update_waiting", "upstream_approach", "vehicle_delay_dt1",
    "vehicle_delay_dt2",
]


def test_public_names_unchanged():
    assert sorted(signaltwin.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in signaltwin.__all__:
        assert getattr(signaltwin, name) is not None, name
