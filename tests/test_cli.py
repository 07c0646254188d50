"""Command-line workflows and artifact determinism."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from signaltwin import cli
from signaltwin.cli import RunConfig, _resolve, main, read_trajectory
from signaltwin.network import build_grid, load_network, save_network
from signaltwin.traffic import DEPARTURE_MODES
from test_golden import TURNING_PAIRS


def run_cli(*args):
    return main(list(args))


def small_config(tmp_path, **extra):
    data = {
        "network": {"rows": 3, "cols": 3, "segment_length": 400.0,
                    "lane_count": 1, "pocket_length": 60.0, "free_flow_speed": 13.89},
        "horizon": 900.0,
        "warmup": 150.0,
        "cooldown": 150.0,
        "base_vph": 60.0,
        "ladder_factor": 0.25,
    }
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(cfg), "--seed", "42",
                   "--scenario", "1", "--out", str(out)) == 0
    for name in ("config.json", "network.json", "departures.csv",
                 "trajectory.csv", "signals.csv", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "baseline"
    assert summary["seed"] == 42
    assert summary["window"] == [150.0, 750.0]
    assert "simulate:" in capsys.readouterr().out


def test_simulate_default_window_matches_measured_period(tmp_path):
    out = tmp_path / "run"
    cfg = small_config(tmp_path, horizon=3600.0, warmup=600.0, cooldown=600.0)
    assert run_cli("simulate", "--config", str(cfg), "--scenario", "1",
                   "--seed", "1", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["window"] == [600.0, 3000.0]


def test_simulate_deterministic_artifacts(tmp_path):
    cfg = small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("simulate", "--config", str(cfg), "--seed", "7",
                       "--scenario", "2", "--out", str(out)) == 0
    for name in ("trajectory.csv", "signals.csv", "summary.json", "departures.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_invalid_algorithm_lists_tokens(tmp_path, capsys):
    code = run_cli("simulate", "--algorithm", "magic", "--out", str(tmp_path / "x"))
    assert code == 2
    err = capsys.readouterr().err
    for token in ("baseline", "dt1", "dt2"):
        assert token in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"warp_drive": True}))
    assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x")) == 2
    assert "warp_drive" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run_cli("simulate", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "x")) == 2


def test_config_file_must_hold_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for flags in ((), ("--seed", "3")):
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x"), *flags) == 2
        assert "config" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_compare_artifacts_and_departure_identity(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "cmp"
    assert run_cli("compare", "--config", str(cfg), "--seed", "5", "--scenario", "3",
                   "--algorithm", "baseline,dt1,dt2", "--out", str(out)) == 0
    assert (out / "comparison.csv").exists()
    assert (out / "comparison.json").exists()
    for movement in ("EBT", "WBT", "NBT", "SBT", "EBL", "WBL", "NBL", "SBL"):
        assert (out / f"dsd_{movement}.csv").exists()
    # Demand is independent of control: departure schedules are identical.
    reference = (out / "baseline" / "departures.csv").read_bytes()
    for algo in ("dt1", "dt2"):
        assert (out / algo / "departures.csv").read_bytes() == reference
    report = json.loads((out / "comparison.json").read_text())
    assert report["algorithms"] == ["baseline", "dt1", "dt2"]


def test_compare_needs_two_algorithms(tmp_path):
    cfg = small_config(tmp_path)
    assert run_cli("compare", "--config", str(cfg), "--algorithm", "baseline",
                   "--out", str(tmp_path / "x")) == 2


def test_compare_needs_baseline(tmp_path):
    cfg = small_config(tmp_path)
    assert run_cli("compare", "--config", str(cfg), "--algorithm", "dt1,dt2",
                   "--out", str(tmp_path / "x")) == 2


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lane_count=st.integers(min_value=1, max_value=2),
    # From free flow to queues that spill back to the origins.
    base_vph=st.floats(min_value=20.0, max_value=1800.0),
    dt=st.sampled_from([0.5, 1.0]),
    departure_mode=st.sampled_from(DEPARTURE_MODES),
    carryover_turns=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    # None: scenario 1, the straight pairs; else turning pairs, in any order.
    turning=st.none() | st.lists(st.sampled_from(TURNING_PAIRS), min_size=1, unique=True),
)
def test_compare_writes_each_run_as_simulate_does(
    lane_count, base_vph, dt, departure_mode, carryover_turns, seed, turning,
):
    # compare runs the rest of the network once and the subject's slice per
    # algorithm; each run directory must still be that of a run of every
    # flow, byte for byte.  A simulate that logs its trajectory is one: its
    # slice is every flow.
    algorithms = ("baseline", "dt1", "dt2")
    demand = ({"scenario": 1} if turning is None else
              {"flows": [{"origin": o, "destination": d, "vph": base_vph} for o, d in turning]})
    config = {
        "network": {"rows": 3, "cols": 3, "segment_length": 250.0, "lane_count": lane_count,
                    "pocket_length": 60.0, "free_flow_speed": 13.89},
        "horizon": 300.0, "warmup": 60.0, "cooldown": 60.0, "base_vph": base_vph, "dt": dt,
        "departure_mode": departure_mode, "carryover_turns": carryover_turns, "seed": seed,
        "log_trajectory": False, "algorithms": list(algorithms), **demand,
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg, every_flow = Path(tmp) / "config.json", Path(tmp) / "every_flow.json"
        cfg.write_text(json.dumps(config))
        every_flow.write_text(json.dumps({**config, "log_trajectory": True}))
        assert run_cli("compare", "--config", str(cfg), "--out", f"{tmp}/cmp") == 0
        for algo in algorithms:
            out = f"{tmp}/{algo}"
            assert run_cli("simulate", "--config", str(every_flow), "--algorithm", algo,
                           "--out", out) == 0
            for name in ("summary.json", "signals.csv", "departures.csv"):
                ours = Path(tmp, "cmp", algo, name).read_bytes()
                assert ours == Path(out, name).read_bytes(), (algo, name)


def test_one_function_writes_every_run_directory(tmp_path, monkeypatch):
    # The benchmark's tracer times each run directory under this name.
    calls = []
    original = cli.run_one_simulation

    def counting(run, algorithm, rows, rest, out_dir):
        calls.append((algorithm, out_dir))
        return original(run, algorithm, rows, rest, out_dir)

    monkeypatch.setattr(cli, "run_one_simulation", counting)
    cfg = small_config(tmp_path, log_trajectory=False)
    assert run_cli("simulate", "--config", str(cfg), "--algorithm", "dt1",
                   "--out", str(tmp_path / "sim")) == 0
    assert calls == [("dt1", tmp_path / "sim")]
    calls.clear()
    algorithms = ("baseline", "dt1", "dt2")
    assert run_cli("compare", "--config", str(cfg), "--algorithm", ",".join(algorithms),
                   "--out", str(tmp_path / "cmp")) == 0
    assert calls == [(algo, tmp_path / "cmp" / algo) for algo in algorithms]


def test_twin_job_counts_single_period(tmp_path):
    cfg = small_config(
        tmp_path,
        horizon=600.0, warmup=100.0, cooldown=100.0,
        twin={"factors": [1.0], "period": 300.0,
              "job_horizon": 450.0, "job_warmup": 150.0},
    )
    out = tmp_path / "twin"
    assert run_cli("twin", "--config", str(cfg), "--seed", "11",
                   "--scenario", "1", "--out", str(out)) == 0
    manifest = json.loads((out / "twin_manifest.json").read_text())
    assert len(manifest["periods"]) == 1
    assert len(manifest["periods"][0]["jobs"]) == 3


def test_twin_job_counts_two_periods_three_factors(tmp_path):
    cfg = small_config(
        tmp_path,
        horizon=900.0, warmup=150.0, cooldown=150.0,
        twin={"factors": [0.8, 1.0, 1.2], "period": 300.0,
              "job_horizon": 450.0, "job_warmup": 150.0},
    )
    out = tmp_path / "twin"
    assert run_cli("twin", "--config", str(cfg), "--seed", "11",
                   "--scenario", "1", "--out", str(out)) == 0
    manifest = json.loads((out / "twin_manifest.json").read_text())
    assert sum(len(p["jobs"]) for p in manifest["periods"]) == 18


@pytest.mark.parametrize(
    "label, warnings",
    [
        pytest.param("twin:p0:c0:dt1", ["1 failed job(s)"], id="other-candidate"),
        pytest.param("twin:p1:c1:dt1", ["1 failed job(s)", "1 degraded period(s)"],
                     id="matched-candidate"),
    ],
)
def test_twin_warns_of_failed_jobs(tmp_path, capsys, monkeypatch, label, warnings):
    # A failed job outside the matched candidate degrades no period, and
    # must still not pass in silence.
    import signaltwin.twin as twin
    from signaltwin.traffic import Simulation, label_seed

    def simulation(network, **kwargs):
        if kwargs["seed"] == label_seed(11, label):
            raise RuntimeError("injected")
        return Simulation(network, **kwargs)

    monkeypatch.setattr(twin, "Simulation", simulation)
    cfg = small_config(
        tmp_path,
        horizon=900.0, warmup=150.0, cooldown=150.0,
        twin={"factors": [0.8, 1.0, 1.2], "period": 300.0,
              "job_horizon": 450.0, "job_warmup": 150.0},
    )
    out = tmp_path / "twin"
    assert run_cli("twin", "--config", str(cfg), "--seed", "11",
                   "--scenario", "1", "--out", str(out)) == 0
    manifest = json.loads((out / "twin_manifest.json").read_text())
    assert [p["matched_index"] for p in manifest["periods"]] == [1, 1]
    assert [line.removeprefix("twin: warning: ").split(",")[0]
            for line in capsys.readouterr().err.splitlines()] == warnings


def test_twin_manifest_dimensions_populated(tmp_path):
    cfg = small_config(
        tmp_path,
        horizon=600.0, warmup=100.0, cooldown=100.0,
        twin={"factors": [1.0], "period": 300.0,
              "job_horizon": 450.0, "job_warmup": 150.0},
    )
    out = tmp_path / "twin"
    assert run_cli("twin", "--config", str(cfg), "--seed", "3",
                   "--scenario", "1", "--out", str(out)) == 0
    manifest = json.loads((out / "twin_manifest.json").read_text())
    dims = manifest["dimensions"]
    assert set(dims) == {"PE", "DS", "DD", "MO", "SI", "TP", "CA", "AP", "CG"}
    assert all(isinstance(v, str) and v for v in dims.values())


def test_twin_demand_program_step_change(tmp_path):
    cfg = small_config(
        tmp_path,
        horizon=900.0, warmup=150.0, cooldown=150.0,
        twin={
            "factors": [1.0],
            "period": 300.0,
            "job_horizon": 450.0,
            "job_warmup": 150.0,
            "demand_program": [
                {"start": 0.0, "scenario": 1},
                {"start": 450.0, "scenario": 4},
            ],
        },
    )
    out = tmp_path / "twin"
    assert run_cli("twin", "--config", str(cfg), "--seed", "8", "--out", str(out)) == 0
    manifest = json.loads((out / "twin_manifest.json").read_text())
    measured = [p["measured_vph"] for p in manifest["periods"]]
    assert len(measured) == 2


def test_report_matches_summary(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(cfg), "--seed", "9",
                   "--scenario", "2", "--out", str(out)) == 0
    assert run_cli("report", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert report["measured_traversals"] == summary["measured_traversals"]
    assert report["mean_control_delay"] == pytest.approx(
        summary["mean_control_delay"], rel=1e-9
    )
    assert report["los"] == summary["los"]
    for movement, value in summary["aasd"].items():
        assert report["aasd"][movement] == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_report_requires_run_dir(tmp_path):
    assert run_cli("report", "--out", str(tmp_path / "empty")) == 2


def test_scenario_file_with_custom_flows(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "scenario_id": 4,
        "flows": [
            {"origin": "bw-1:n1-0", "destination": "n1-2:be-1", "vph": 120.0},
            {"origin": "be-1:n1-2", "destination": "n1-0:bw-1", "vph": 90.0},
        ],
    }))
    cfg = small_config(tmp_path, scenario=str(scenario))
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(cfg), "--seed", "2", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario_id"] == 4


def test_scenario_file_missing(tmp_path):
    cfg = small_config(tmp_path, scenario=str(tmp_path / "nope.json"))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2


FLOW = {"origin": "bw-1:n1-0", "destination": "n1-2:be-1", "vph": 60.0}
OTHER_FLOW = {"origin": "be-1:n1-2", "destination": "n1-0:bw-1", "vph": 60.0}


def program(*phases):
    return {"twin": {"factors": [1.0], "period": 300.0, "demand_program": list(phases)}}


@pytest.mark.parametrize(
    "command, extra, field",
    [
        pytest.param("simulate", {"flows": [{**FLOW, "origin": "nope"}]},
                     "flows[0].origin", id="flows-unknown-origin"),
        pytest.param("simulate", {"flows": [{**FLOW, "origin": "n1-0:n1-1"}]},
                     "flows[0].origin", id="flows-origin-not-entry"),
        pytest.param("simulate", {"flows": [FLOW, {**FLOW, "destination": "bw-1:n1-0"}]},
                     "flows[1].destination", id="flows-destination-not-exit"),
        pytest.param("simulate", {"scenario_file": {"flows": [{**FLOW, "origin": "nope"}]}},
                     "flows[0].origin", id="scenario-file-origin"),
        pytest.param("twin", program({"start": 0.0, "flows": [{**FLOW, "destination": "x"}]}),
                     "twin.demand_program[0].flows[0].destination", id="program-destination"),
        pytest.param("twin", program({"start": 600.0, "scenario": 1}),
                     "twin.demand_program: the earliest start must be 0", id="program-late-start"),
        pytest.param("twin", program(), "twin.demand_program", id="program-empty"),
        pytest.param("twin", program({"start": "x", "scenario": 1}),
                     "twin.demand_program[0].start", id="program-start-not-number"),
        pytest.param("twin", program({"start": 0.0, "flows": [FLOW]},
                                     {"start": 300.0, "flows": [OTHER_FLOW]}),
                     "twin.demand_program[1].flows", id="program-od-lists-differ"),
        pytest.param("simulate", {"scenario": 3.7}, "scenario", id="scenario-not-integer"),
        pytest.param("simulate", {"scenario": 12}, "scenario must be 1..11, got 12",
                     id="scenario-out-of-range"),
        pytest.param("simulate", {"scenario": None},
                     "either a scenario number, scenario file or explicit flows",
                     id="neither-scenario-nor-flows"),
        pytest.param("simulate", {"scenario_file": [{**FLOW, "origin": "nope"}]},
                     "scenario.json: flows[0].origin", id="scenario-file-bare-flow-list"),
        pytest.param("simulate", {"scenario_file": {"scenario_id": 3}},
                     "scenario.json must be a flow list or an object with 'flows'",
                     id="scenario-file-without-flows"),
        pytest.param("twin", program({"start": 0.0, "scenario": "two"}),
                     "twin.demand_program[0].scenario", id="program-scenario-not-integer"),
        pytest.param("simulate", {"base_vph": 0, "scenario": 2}, "base_vph",
                     id="scenario-base-vph-zero"),
        pytest.param("simulate", {"ladder_factor": -0.5, "scenario": 2}, "ladder_factor",
                     id="scenario-ladder-factor-negative"),
        pytest.param("twin", {"base_vph": 0, **program({"start": 0.0, "scenario": 2})},
                     "base_vph", id="program-base-vph-zero"),
        pytest.param("simulate", {"flows": [{**FLOW, "vhp": 60.0}]}, "flows[0].vhp",
                     id="flows-unknown-key"),
        # Two flows of one pair would depart in lockstep, from one random stream.
        pytest.param("simulate", {"flows": [FLOW, OTHER_FLOW, {**FLOW, "vph": 30.0}]},
                     "flows[2]: the origin/destination pair", id="flows-pair-repeats"),
        pytest.param("simulate", {"scenario_file": {"flows": [FLOW, {**FLOW, "vph": 30.0}]}},
                     "scenario.json: flows[1]: the origin/destination pair",
                     id="scenario-file-pair-repeats"),
        pytest.param("twin", program({"start": 0.0, "flows": [FLOW, {**FLOW, "vph": 30.0}]}),
                     "twin.demand_program[0].flows[1]: the origin/destination pair",
                     id="program-pair-repeats"),
    ],
)
def test_invalid_demand_exit_2(tmp_path, capsys, command, extra, field):
    # Demand that cannot run on the network is refused before any run.
    extra = dict(extra)
    if "scenario_file" in extra:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(extra.pop("scenario_file")))
        extra["scenario"] = str(path)
    cfg = small_config(tmp_path, horizon=600.0, warmup=100.0, cooldown=100.0, **extra)
    out = tmp_path / "x"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_compare_runs_a_slice_of_every_flow_as_one_simulation(tmp_path, monkeypatch):
    # Both flows cross the subject intersection, so with the trajectory off
    # the slice is every flow and no rest is run: each algorithm runs every
    # flow in one Simulation, as with the trajectory on, to the same bytes.
    made, original = [], cli.Simulation

    def simulation(network, **kwargs):
        made.append(sorted({row[1] for row in kwargs["schedule"]}))
        return original(network, **kwargs)

    monkeypatch.setattr(cli, "Simulation", simulation)
    algorithms = ("baseline", "dt1", "dt2")
    outs = {}
    for log_trajectory in (False, True):
        made.clear()
        cfg = small_config(tmp_path, flows=[FLOW, OTHER_FLOW], horizon=600.0, warmup=100.0,
                           cooldown=100.0, log_trajectory=log_trajectory)
        outs[log_trajectory] = tmp_path / f"cmp-{log_trajectory}"
        assert run_cli("compare", "--config", str(cfg), "--algorithm", ",".join(algorithms),
                       "--out", str(outs[log_trajectory])) == 0
        assert made == [[0, 1]] * len(algorithms)
    for algo in algorithms:
        for name in ("summary.json", "signals.csv", "departures.csv"):
            ours = (outs[False] / algo / name).read_bytes()
            assert ours == (outs[True] / algo / name).read_bytes(), (algo, name)


def test_runtime_error_exit_3(tmp_path, capsys, monkeypatch):
    # A failure inside a run is not a config error: exit 3, naming its type.
    def fail(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli.Simulation, "run", fail)
    cfg = small_config(tmp_path)
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == "runtime error: RuntimeError: injected\n"


@pytest.mark.parametrize(
    "flow, field",
    [
        ({"vph": float("nan")}, "vph"),
        ({"vph": 10.0, "depart_speed": -5.0}, "depart_speed"),
    ],
)
def test_invalid_flow_exit_2(tmp_path, capsys, flow, field):
    cfg = small_config(
        tmp_path, flows=[{"origin": "bw-1:n1-0", "destination": "n1-2:be-1", **flow}],
    )
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "twin_cfg, field",
    [
        ({"estimate_window": 0.0}, "estimate_window"),
        ({"job_warmup": 1000.0, "job_horizon": 900.0}, "job_warmup"),
        ({"job_warmup": 400.0, "job_cooldown": 100.0, "job_horizon": 450.0}, "job_cooldown"),
        ({"parallelism": 0}, "parallelism"),
        pytest.param({"job_horizon": 0.0, "job_warmup": 0.0}, "job_horizon",
                     id="job-horizon-zero"),
        pytest.param({"job_warmup": -10.0}, "job_warmup", id="job-warmup-negative"),
        pytest.param({"job_cooldown": -10.0}, "job_cooldown", id="job-cooldown-negative"),
        pytest.param({"job_horizon": 600.5}, "twin.job_horizon", id="job-horizon-off-grid"),
        pytest.param({"period": 0.3}, "twin.period", id="period-off-grid"),
        pytest.param({"factors": [1e308]}, "twin.factors", id="factor-bound-not-finite"),
        pytest.param({"initial_algorithm": "dt3"}, "twin.initial_algorithm: unknown algorithm",
                     id="initial-algorithm-unknown"),
    ],
)
def test_invalid_twin_settings_exit_2(tmp_path, capsys, twin_cfg, field):
    cfg = small_config(tmp_path, horizon=600.0, warmup=100.0, cooldown=100.0,
                       twin={"factors": [1.0], "period": 300.0, **twin_cfg})
    out = tmp_path / "x"
    assert run_cli("twin", "--config", str(cfg), "--scenario", "1", "--out", str(out)) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


# The library's message (traffic._check_seed), which every command prints.
NEGATIVE_SEED = "config error: seed must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    "command, extra, field",
    [
        pytest.param("simulate", {"network": {"rowz": 5}}, "network.rowz",
                     id="network-unknown-key"),
        pytest.param("simulate", {"network": {"rows": 2.5, "cols": 3}}, "network.rows",
                     id="network-rows-not-integer"),
        pytest.param("simulate", {"network": {"file": "network.json", "rows": 3}}, "network.rows",
                     id="network-file-and-grid-keys"),
        pytest.param("simulate", {"network": {"file": "no/such/network.json"}}, "network.file",
                     id="network-file-missing"),
        pytest.param("simulate", {"network": {"rows": 3, "cols": 3, "pocket_length": 0}},
                     "network: subject_intersection", id="network-without-pockets"),
        pytest.param("simulate", {"dt": 0.3}, "dt", id="simulate-dt-not-dividing"),
        pytest.param("compare", {"dt": 0.3, "algorithms": ["baseline", "dt1"]}, "dt",
                     id="compare-dt-not-dividing"),
        pytest.param("simulate", {"vehicle": {"length": 0}}, "length", id="vehicle-length-zero"),
        pytest.param("simulate", {"vehicle": {"depart_speed": 7}}, "vehicle.depart_speed",
                     id="vehicle-depart-speed-removed"),
        pytest.param("simulate", {"vehicle": {"length": 1e6}}, "vehicle.length (1000000.0 m)",
                     id="simulate-vehicle-longer-than-segment"),
        pytest.param("compare", {"vehicle": {"length": 398.0}, "algorithms": ["baseline", "dt1"]},
                     "vehicle.length (398.0 m) plus min_gap (2.5 m) is longer than the "
                     "shortest segment", id="compare-vehicle-longer-than-segment"),
        pytest.param("twin", {"vehicle": {"length": 1e6}}, "vehicle.length (1000000.0 m)",
                     id="twin-vehicle-longer-than-segment"),
        pytest.param("simulate", {"algorithm": "dt1"}, "algorithm", id="algorithm-alias-removed"),
        pytest.param("simulate", {"algorithms": ["baseline", "dt1"]},
                     "simulate takes exactly one algorithm", id="simulate-two-algorithms"),
        pytest.param("simulate", {"seed": "x"}, "seed", id="seed-string"),
        pytest.param("simulate", {"seed": True}, "seed", id="seed-bool"),
        pytest.param("simulate", {"seed": -1}, NEGATIVE_SEED, id="simulate-seed-negative"),
        pytest.param("simulate", {"seed": -1, "departure_mode": "uniform"}, NEGATIVE_SEED,
                     id="simulate-uniform-seed-negative"),
        pytest.param("compare", {"seed": -1, "algorithms": ["baseline", "dt1"]}, NEGATIVE_SEED,
                     id="compare-seed-negative"),
        pytest.param("twin", {"seed": -1}, NEGATIVE_SEED, id="twin-seed-negative"),
        pytest.param("simulate", {"horizon": "900"}, "horizon", id="horizon-string"),
        pytest.param("simulate", {"horizon": 10**400}, "horizon", id="horizon-beyond-float"),
        pytest.param("simulate", {"horizon": 1e308, "dt": 0.5, "warmup": 0, "cooldown": 0},
                     "horizon", id="horizon-steps-beyond-float"),
        pytest.param("simulate", {"horizon": 1e308, "dt": 1.0, "warmup": 0, "cooldown": 0},
                     "horizon (1e+308s) over dt (1.0s) is more than 2**53 steps",
                     id="horizon-steps-beyond-exact"),
        pytest.param("simulate", {"horizon": 0, "warmup": 0, "cooldown": 0}, "horizon",
                     id="horizon-zero"),
        pytest.param("simulate", {"dt": 1.0, "horizon": 120.5, "warmup": 0, "cooldown": 0},
                     "horizon (120.5s)", id="horizon-off-grid-below"),
        pytest.param("simulate", {"dt": 1.0, "horizon": 120.9, "warmup": 0, "cooldown": 0},
                     "horizon (120.9s)", id="horizon-off-grid-above"),
        pytest.param("simulate", {"dt": 0.5, "warmup": 150.2}, "warmup (150.2s)",
                     id="warmup-off-grid"),
        pytest.param("simulate", {"carryover_turns": "no"}, "carryover_turns",
                     id="carryover-turns-string"),
        pytest.param("simulate", {"log_trajectory": "false"}, "log_trajectory",
                     id="log-trajectory-string"),
        pytest.param("simulate", {"departure_mode": "poison"}, "departure_mode",
                     id="departure-mode-unknown"),
        pytest.param("twin", {"twin": {"departure_mode": "poison"}},
                     "twin.departure_mode: unknown key", id="twin-departure-mode-unknown"),
        pytest.param("twin", {"twin": {"parallelism": 2}}, "twin.parallelism: unknown key",
                     id="twin-parallelism-in-section"),
        pytest.param("simulate", {"twin": {"departure_mode": "uniform"}},
                     "twin.departure_mode: unknown key", id="simulate-twin-departure-mode"),
        pytest.param("twin", {"twin": {"bogus": 1}},
                     "valid keys: factors, period, job_horizon, job_warmup, job_cooldown, "
                     "estimate_window, initial_algorithm, demand_program",
                     id="twin-unknown-key-lists-demand-program"),
    ],
)
def test_invalid_run_settings_exit_2(tmp_path, capsys, command, extra, field):
    # Every setting is checked before the run directory is created.
    cfg = small_config(tmp_path, **extra)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, flags, field",
    [
        pytest.param("simulate", {"twin": {"bogus": 1, "period": -5}, "parallelism": -3}, (),
                     "twin.bogus: unknown key", id="simulate-twin-section"),
        pytest.param("simulate", {"twin": {"period": -5}}, (), "twin.period",
                     id="simulate-twin-period-negative"),
        pytest.param("simulate", {"parallelism": -3}, (), "error: parallelism must be",
                     id="simulate-parallelism-negative"),
        pytest.param("simulate", {}, ("--parallelism", "0"), "error: parallelism must be",
                     id="simulate-parallelism-flag-zero"),
        pytest.param("compare", {"algorithms": ["baseline", "dt1"]}, ("--parallelism", "0"),
                     "error: parallelism must be", id="compare-parallelism-flag-zero"),
        pytest.param("compare",
                     {"algorithms": ["baseline", "dt1"], "twin": {"job_horizon": 600.5}}, (),
                     "twin.job_horizon", id="compare-twin-job-horizon-off-grid"),
        pytest.param("simulate", {"twin": {"demand_program": [{"start": 0.0}]}}, (),
                     "twin.demand_program[0]", id="simulate-twin-demand-program"),
    ],
)
def test_every_command_checks_the_twin_section(tmp_path, capsys, command, extra, flags, field):
    # What twin refuses, simulate and compare refuse too, with twin's message.
    cfg = small_config(tmp_path, **extra)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out), *flags) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize(
    "command, extra",
    [
        pytest.param("simulate", {}, id="simulate"),
        pytest.param("compare", {"algorithms": ["baseline", "dt1"]}, id="compare"),
        pytest.param("twin", {}, id="twin"),
    ],
)
def test_unusable_out_exit_2(tmp_path, capsys, command, extra, under):
    # An out that is a regular file, or lies under one, cannot be made a
    # run directory; it is refused before anything is written.
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    cfg = small_config(tmp_path, **extra)
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    assert f"config error: out: {afile} is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


def _network_file(tmp_path, mutate=None):
    # The network that small_config builds, saved as a file and edited.
    path = tmp_path / "network.json"
    save_network(build_grid(3, 3, 400.0, 1, 60.0, 13.89), path)
    if mutate is not None:
        data = json.loads(path.read_text())
        # An edit in place returns None; any other result replaces the document.
        replaced = mutate(data)
        path.write_text(json.dumps(data if replaced is None else replaced))
    return path


def _segment(data, segment_id):
    return next(s for s in data["segments"] if s["id"] == segment_id)


@pytest.mark.parametrize(
    "mutate, field",
    [
        pytest.param(lambda d: d["segments"][4].update(lane_count=2.7), "segments[4].lane_count",
                     id="lane-count-float"),
        pytest.param(lambda d: d["segments"][4].update(lane_count=True), "segments[4].lane_count",
                     id="lane-count-bool"),
        pytest.param(lambda d: d["segments"][4].update(length="650"), "segments[4].length",
                     id="length-string"),
        pytest.param(lambda d: d["segments"][4].update(free_flow_speed=float("nan")),
                     "segments[4].free_flow_speed", id="free-flow-speed-nan"),
        pytest.param(lambda d: d["segments"][4].update(lanes=2), "segments[4].lanes",
                     id="segment-unknown-key"),
        pytest.param(lambda d: d["segments"][4].update(id=d["segments"][3]["id"]),
                     "segments[4].id", id="segment-id-duplicated"),
        pytest.param(lambda d: d["segments"].remove(_segment(d, "n0-1:n1-1")),
                     "subject_intersection", id="subject-approach-missing"),
        pytest.param(lambda d: _segment(d, "n0-1:n1-1").update(pocket_length=0.0),
                     "subject_intersection", id="subject-approach-without-pocket"),
        pytest.param(lambda d: d["segments"][4].update(movement="XBT"), "segments[4].movement",
                     id="movement-unknown"),
        pytest.param(lambda d: d.update(nodes=[]), "nodes", id="nodes-not-object"),
        pytest.param(lambda d: d["nodes"].update({"n0-0": [0]}), "nodes.n0-0",
                     id="node-one-number"),
        pytest.param(lambda d: d["nodes"].update({"n0-0": [0, 0, 7]}), "nodes.n0-0",
                     id="node-three-numbers"),
        pytest.param(lambda d: d.update(extra=1), "extra", id="top-level-unknown-key"),
        pytest.param(lambda d: d.update(subject_intersection=5), "subject_intersection",
                     id="subject-not-string"),
        pytest.param(lambda d: d["boundary_nodes"].update({"n0-0": [0, 0]}),
                     "boundary_nodes.n0-0", id="node-also-boundary"),
        pytest.param(lambda d: [], "must be an object, got []", id="document-not-object"),
        pytest.param(lambda d: d["segments"][4].update(length=-1.0),
                     "segments[4].length must be positive", id="length-negative"),
    ],
)
def test_invalid_network_file_exit_2(tmp_path, capsys, mutate, field):
    # A network file passes the same checks as every other input.
    path = _network_file(tmp_path, mutate)
    cfg = small_config(tmp_path, network={"file": str(path)}, scenario=2)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert f"network.file: {field}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, field",
    [
        pytest.param("simulate", {}, "flows[1]", id="simulate"),
        pytest.param("compare", {"algorithms": ["baseline", "dt1"]}, "flows[1]", id="compare"),
        pytest.param("twin", "program", "twin.demand_program[0].flows[1]", id="twin"),
    ],
)
def test_flow_without_route_exit_2(tmp_path, capsys, command, extra, field):
    # Without the segments into n0-0 from the east and from the north, no
    # route reaches n0-0's west exit from the east side of row 0.
    def cut(data):
        data["segments"] = [s for s in data["segments"]
                            if s["id"] not in ("n0-1:n0-0", "n1-0:n0-0")]

    flows = [{"origin": "bw-1:n1-0", "destination": "n1-2:be-1", "vph": 60.0},
             {"origin": "be-0:n0-2", "destination": "n0-0:bw-0", "vph": 60.0}]
    if extra == "program":
        extra = {"twin": {"demand_program": [{"start": 0.0, "flows": flows}]}}
    else:
        extra = {**extra, "flows": flows}
    path = _network_file(tmp_path, cut)
    cfg = small_config(tmp_path, network={"file": str(path)}, **extra)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{field}: no route from be-0:n0-2 to n0-0:bw-0" in err, err
    assert not out.exists()


def test_network_file_runs_as_the_grid_it_holds(tmp_path):
    grid = json.loads(small_config(tmp_path).read_text())["network"]
    outs = []
    for network in (grid, {"file": str(_network_file(tmp_path))}):
        cfg = small_config(tmp_path, network=network)
        outs.append(tmp_path / f"run{len(outs)}")
        assert run_cli("simulate", "--config", str(cfg), "--seed", "5", "--out", str(outs[-1])) == 0
    for name in ("network.json", "trajectory.csv", "signals.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_json_int_for_float_setting_runs_the_same(tmp_path):
    # A JSON int given for a float setting is taken as that float.
    outs = []
    for spelled in (float, int):
        cfg = small_config(tmp_path, horizon=spelled(600), warmup=spelled(100),
                           cooldown=spelled(100), vehicle={"length": spelled(5)})
        outs.append(tmp_path / spelled.__name__)
        assert run_cli("simulate", "--config", str(cfg), "--seed", "3", "--out", str(outs[-1])) == 0
    for name in ("trajectory.csv", "signals.csv", "summary.json", "departures.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_readme_config_example_resolves():
    # The config example documented under "Command line" stays a valid config.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):]
    block = section[section.index("```json") + len("```json"):]
    config = RunConfig.from_dict(json.loads(block[:block.index("```")]))
    run = _resolve(config, "twin")
    assert [phase.start for phase in run.program] == [0.0, 1800.0]
    assert run.settings.factors == (0.8, 1.0, 1.2)
    assert len(run.network.nodes) == 9


def test_readme_library_example_runs():
    # The code documented under "Library use" runs as written.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library use"):]
    block = section[section.index("```python") + len("```python"):]
    namespace = {}
    exec(block[:block.index("```")], namespace)
    assert namespace["result"].algorithm == "dt1"
    assert namespace["grade"].grade in "ABCDEF"


def test_regenerate_from_stored_config(tmp_path):
    # An artifact directory is self-describing: its config regenerates it.
    cfg = small_config(tmp_path)
    out_a = tmp_path / "a"
    assert run_cli("simulate", "--config", str(cfg), "--seed", "4",
                   "--scenario", "1", "--out", str(out_a)) == 0
    out_b = tmp_path / "b"
    assert run_cli("simulate", "--config", str(out_a / "config.json"),
                   "--out", str(out_b)) == 0
    for name in ("trajectory.csv", "signals.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_network_file_round_trip_via_cli(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", str(cfg), "--seed", "1",
                   "--scenario", "1", "--out", str(out)) == 0
    net = load_network(out / "network.json")
    assert net.subject_intersection == "n1-1"
    rows = read_trajectory(out / "trajectory.csv")
    assert rows and all(len(r) == 7 for r in rows[:5])
