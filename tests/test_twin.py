"""Forecasting, parallel job evaluation and the live selection loop."""

import json
import math
import random

import pytest

from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from signaltwin.controllers import ALGORITHMS
from signaltwin.network import build_grid
from signaltwin.traffic import DEPARTURE_MODES, Flow, SimClock, Simulation, VehicleParams
from signaltwin.twin import (
    DemandEstimate,
    DemandPhase,
    SimulationJob,
    TwinSettings,
    _subject_flows,
    build_live_schedule,
    check_demand_program,
    default_dimensions,
    estimate_demand,
    forecast_demands,
    live_loop,
    match_demand,
    run_parallel,
    select_controller,
)
from test_traffic import signal_rows


@pytest.fixture(scope="module")
def grid3():
    return build_grid(3, 3, 650.0, 2, 80.0, 13.89)


# Origin/destination pairs on a 3 x 3 grid, whose subject is n1-1.
THROUGH = ("bs-1:n0-1", "n2-1:bn-1")  # north through the subject
JOINING = ("bw-2:n2-0", "n2-1:bn-1")  # east, then north at n2-1 onto THROUGH's exit
ALONG_ROW_2 = ("bw-2:n2-0", "n2-2:be-2")  # shares JOINING's first two segments
COLUMN_0 = ("bs-0:n0-0", "n2-0:bn-0")  # north along column 0
TURN_AT_N0_2 = ("be-0:n0-2", "n0-2:bs-2")  # west, then south at n0-2


def make_jobs(grid, vphs, horizon=900.0, warmup=300.0):
    jobs = []
    ods = grid.straight_od_pairs()[:4]
    for c, vph in enumerate(vphs):
        flows = tuple(Flow(o, d, vph) for o, d in ods)
        for algo in ("baseline", "dt1", "dt2"):
            jobs.append(
                SimulationJob(
                    job_id=f"c{c}-{algo}",
                    flows=flows,
                    algorithm=algo,
                    seed=1000 + c,
                    clock=SimClock(horizon=horizon, warmup=warmup, cooldown=0.0),
                    candidate_index=c,
                )
            )
    return jobs


def test_forecast_examples():
    estimate = DemandEstimate(window_length=300.0, vph=(100.0, 200.0))
    assert forecast_demands(estimate, [1.0]) == [(100.0, 200.0)]
    assert forecast_demands(estimate, [0.5, 2.0]) == [(50.0, 100.0), (200.0, 400.0)]
    zero = DemandEstimate(window_length=300.0, vph=(0.0, 0.0))
    assert forecast_demands(zero, [0.8, 1.0, 1.2]) == [(0.0, 0.0)] * 3
    with pytest.raises(ValueError):
        forecast_demands(estimate, [])
    with pytest.raises(ValueError):
        forecast_demands(estimate, [0.0])


def test_match_demand_examples():
    candidates = [(10.0, 10.0), (30.0, 10.0), (50.0, 70.0)]
    assert match_demand((50.0, 70.0), candidates) == 2
    assert match_demand((20.0, 10.0), [(10.0, 10.0), (30.0, 10.0)]) == 0  # tie
    with pytest.raises(ValueError):
        match_demand((1.0, 2.0), [(1.0,)])
    with pytest.raises(ValueError):
        match_demand((1.0,), [])


def test_match_demand_brute_force_scan():
    rng = random.Random(17)
    for _ in range(100):
        dim = rng.randrange(1, 6)
        measured = tuple(rng.uniform(0, 500) for _ in range(dim))
        candidates = [tuple(rng.uniform(0, 500) for _ in range(dim)) for _ in range(5)]
        best = min(
            range(5),
            key=lambda i: (math.dist(measured, candidates[i]), i),
        )
        assert match_demand(measured, candidates) == best


def fake_result(algorithm, score):
    from signaltwin.traffic import SimulationResult

    return SimulationResult(
        algorithm=algorithm, seed=0, scenario_id=None,
        window=(300.0, 900.0), mean_control_delay=score,
    )


def fake_job(algorithm):
    return SimulationJob(
        job_id=f"p0-c0-{algorithm}", flows=(), algorithm=algorithm,
        seed=0, clock=SimClock(horizon=900.0, warmup=300.0, cooldown=0.0), candidate_index=0,
    )


def test_select_controller_examples():
    rows = [
        (fake_job("baseline"), fake_result("baseline", 30.0)),
        (fake_job("dt1"), fake_result("dt1", 25.0)),
        (fake_job("dt2"), fake_result("dt2", 28.0)),
    ]
    selection = select_controller(rows, matched_demand=0)
    assert selection.chosen_algorithm == "dt1"
    assert selection.matched_demand == 0
    assert [row[1] for row in selection.scored] == ["baseline", "dt1", "dt2"]

    only = select_controller(rows[:1], matched_demand=1)
    assert only.chosen_algorithm == "baseline"

    tied = [
        (fake_job("baseline"), fake_result("baseline", 25.0)),
        (fake_job("dt1"), fake_result("dt1", 25.0)),
    ]
    assert select_controller(tied, matched_demand=0).chosen_algorithm == "baseline"

    with pytest.raises(ValueError):
        select_controller([], matched_demand=0)


def test_run_parallel_empty(grid3):
    assert run_parallel(grid3, []) == []


def test_run_parallel_parallelism_invariant(grid3):
    jobs = make_jobs(grid3, [60.0, 120.0], horizon=600.0, warmup=200.0)
    serial = run_parallel(grid3, jobs, parallelism=1)
    parallel = run_parallel(grid3, jobs, parallelism=4)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


@pytest.fixture
def inline_pools(monkeypatch, request):
    """Replace ProcessPoolExecutor by an in-process stand-in; returns the
    stand-ins in order of construction.  No real pool is started.

    A stand-in runs each job when it is submitted, unless the fixture's
    parameter (or the class's ``defer``) says when a job runs instead:
    "last-first", when a result is first asked for, every pending job, the
    last submitted first; "own", when its own result is asked for.  A
    shutdown runs the jobs still pending, or with ``cancel_futures``
    cancels them.  ``ran`` lists the job ids in the order they ran."""
    import concurrent.futures

    made = []

    class DeferredFuture(concurrent.futures.Future):
        def __init__(self, pool, fn, args):
            super().__init__()
            self.pool, self.fn, self.args = pool, fn, args

        def result(self, timeout=None):
            self.pool.run_for(self)
            return super().result(timeout)

    class InlineExecutor:
        defer = getattr(request, "param", None)

        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.shutdowns = []  # the cancel_futures of each shutdown
            self.pending = []
            self.ran = []
            made.append(self)

        def shutdown(self, wait=True, cancel_futures=False):
            self.shutdowns.append(cancel_futures)
            for future in list(self.pending):
                if cancel_futures:
                    self.pending.remove(future)
                    future.cancel()
                else:
                    self.run(future)

        def submit(self, fn, *args):
            future = DeferredFuture(self, fn, args)
            self.pending.append(future)
            if self.defer is None:
                self.run(future)
            return future

        def run(self, future):
            self.pending.remove(future)
            self.ran.append(future.args[1].job_id)
            future.set_result(future.fn(*future.args))

        def run_for(self, future):
            if self.defer == "last-first":
                for pending in reversed(self.pending):
                    self.run(pending)
            elif future in self.pending:
                self.run(future)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return made


def test_run_parallel_starts_at_most_one_worker_per_job(grid3, inline_pools):
    jobs = make_jobs(grid3, [60.0], horizon=120.0, warmup=0.0)
    serial = [r.to_dict() for r in run_parallel(grid3, jobs, parallelism=1)]
    for parallelism in (5000, 2):
        results = run_parallel(grid3, jobs, parallelism=parallelism)
        assert [r.to_dict() for r in results] == serial
    assert [(pool.max_workers, pool.shutdowns) for pool in inline_pools] == [
        (3, [False]), (2, [False])
    ]


def short_twin(grid, parallelism, initial_algorithm="baseline"):
    # Two periods of nine jobs each; candidate 1 is matched in both.
    ods = grid.straight_od_pairs()[:4]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 80.0) for o, d in ods))]
    settings = TwinSettings(period=300.0, job_horizon=300.0, job_warmup=100.0,
                            parallelism=parallelism, initial_algorithm=initial_algorithm)
    clock = SimClock(dt=1.0, horizon=900.0, warmup=100.0, cooldown=100.0)
    return live_loop(grid, program, settings, seed=9, clock=clock)


def test_live_loop_runs_every_period_in_one_pool(grid3, inline_pools):
    serial, _, _ = short_twin(grid3, parallelism=1)
    assert inline_pools == []
    manifest, _, _ = short_twin(grid3, parallelism=2)
    assert [(pool.max_workers, pool.shutdowns) for pool in inline_pools] == [(2, [False])]
    assert len(manifest["periods"]) == 2
    assert manifest["settings"]["parallelism"] == 2
    assert {**manifest, "settings": {**manifest["settings"], "parallelism": 1}} == serial


def test_live_loop_shuts_the_pool_down_when_a_period_raises(grid3, inline_pools, monkeypatch):
    import concurrent.futures

    import signaltwin.twin as twin

    calls = []

    def match_demand_failing_in_period_1(measured, candidates):
        calls.append(measured)
        if len(calls) == 2:
            raise RuntimeError("period 1 failed")
        return match_demand(measured, candidates)

    monkeypatch.setattr(twin, "match_demand", match_demand_failing_in_period_1)
    # A job runs only when its result is asked for: period 0 waits for its
    # matched candidate's jobs, so the other six are still queued when
    # period 1 raises, and must be cancelled, not run.
    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "defer", "own")
    with pytest.raises(RuntimeError, match="period 1 failed"):
        short_twin(grid3, parallelism=2)
    [pool] = inline_pools
    assert (pool.max_workers, pool.shutdowns) == (2, [True])
    assert pool.ran == ["p000-c1-baseline", "p000-c1-dt1", "p000-c1-dt2"]
    assert pool.pending == []


@pytest.mark.parametrize("inline_pools", ["last-first", "own"], indirect=True)
def test_live_loop_manifest_does_not_depend_on_the_order_jobs_finish(grid3, inline_pools):
    serial, serial_result, _ = short_twin(grid3, parallelism=1)
    manifest, result, _ = short_twin(grid3, parallelism=2)
    [pool] = inline_pools
    matched = [f"p00{p}-c1-{algo}" for p in (0, 1) for algo in ALGORITHMS]
    if pool.defer == "last-first":
        # Period 0 submits its matched candidate's jobs, then the others,
        # heaviest first; its first wait runs all nine, the last first.
        submitted = [f"p000-c{c}-{algo}" for c in (1, 2, 0) for algo in ALGORITHMS]
        assert pool.ran[:9] == submitted[::-1]
    else:
        # The other candidates' jobs of both periods run only when the
        # live run has ended.
        assert pool.ran[:6] == matched
    assert sorted(pool.ran) == sorted(j["job_id"] for p in serial["periods"] for j in p["jobs"])
    assert {**manifest, "settings": {**manifest["settings"], "parallelism": 1}} == serial
    assert result.to_dict() == serial_result.to_dict()


def fail_the_job(monkeypatch, label):
    """Make the twin job of seed label ``label`` (at seed 9) fail as it
    is built; every other simulation runs as it would."""
    import signaltwin.twin as twin
    from signaltwin.traffic import label_seed

    bad_seed = label_seed(9, label)

    def simulation(network, **kwargs):
        if kwargs["seed"] == bad_seed:
            raise RuntimeError("injected")
        return Simulation(network, **kwargs)

    monkeypatch.setattr(twin, "Simulation", simulation)


def test_a_failed_job_of_the_matched_candidate_degrades_its_period(grid3, monkeypatch):
    # Without the failure, period 0 selects baseline and swaps from dt1.
    reference, _, _ = short_twin(grid3, parallelism=1, initial_algorithm="dt1")
    assert [e["tag"] for e in reference["swap_events"]] == ["period-0"]
    fail_the_job(monkeypatch, "twin:p0:c1:baseline")
    manifest, _, _ = short_twin(grid3, parallelism=1, initial_algorithm="dt1")
    period = manifest["periods"][0]
    assert period["matched_index"] == 1
    assert period["degraded"] is True
    assert period["selection"] is None
    failed = [(j["job_id"], j["error"]) for j in period["jobs"] if j["error"]]
    assert failed == [("p000-c1-baseline", "RuntimeError: injected")]
    # The controller is kept through period 0; period 1 makes the swap.
    assert [e["tag"] for e in manifest["swap_events"]] == ["period-1"]
    assert manifest["periods"][1] == reference["periods"][1]


def test_a_failed_job_of_another_candidate_leaves_the_selection(grid3, monkeypatch):
    reference, _, _ = short_twin(grid3, parallelism=1, initial_algorithm="dt1")
    fail_the_job(monkeypatch, "twin:p0:c0:dt2")
    manifest, _, _ = short_twin(grid3, parallelism=1, initial_algorithm="dt1")
    period = manifest["periods"][0]
    assert period["degraded"] is False
    assert period["selection"] == reference["periods"][0]["selection"]
    failed = [(j["job_id"], j["error"]) for j in period["jobs"] if j["error"]]
    assert failed == [("p000-c0-dt2", "RuntimeError: injected")]
    assert manifest["swap_events"] == reference["swap_events"]
    assert manifest["live_summary"] == reference["live_summary"]


def test_live_loop_jobs_use_the_departure_mode(grid3, monkeypatch):
    import signaltwin.traffic as traffic

    modes = []
    generate = traffic.generate_departures

    def recording(flow, horizon, seed, mode="poisson"):
        modes.append(mode)
        return generate(flow, horizon, seed, mode)

    monkeypatch.setattr(traffic, "generate_departures", recording)
    ods = grid3.straight_od_pairs()[:4]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 80.0) for o, d in ods))]
    settings = TwinSettings(period=300.0, job_horizon=300.0, job_warmup=100.0,
                            departure_mode="uniform")
    clock = SimClock(dt=1.0, horizon=900.0, warmup=100.0, cooldown=100.0)
    manifest, _, _ = live_loop(grid3, program, settings, seed=9, clock=clock)
    n_jobs = sum(len(p["jobs"]) for p in manifest["periods"])
    # One call per flow for the live run, and per kept flow for each of the
    # 18 jobs: only the middle row's pair among the four enters the subject.
    assert n_jobs == 18
    assert _subject_flows(grid3, ods) == [1]
    assert modes == ["uniform"] * (len(ods) + n_jobs)


@pytest.mark.parametrize(
    "bad, field",
    [
        pytest.param({"job_horizon": 300.5}, "job_horizon", id="job-horizon-off-grid"),
        pytest.param({"period": 0.3}, "period", id="period-off-grid"),
        pytest.param({"factors": (1e308,)}, "factors", id="factor-bound-not-finite"),
        pytest.param({"initial_algorithm": "dt3"}, "initial_algorithm",
                     id="initial-algorithm-unknown"),
    ],
)
def test_live_loop_refuses_bad_settings_before_any_job(grid3, monkeypatch, bad, field):
    # The library entry applies the rules that the CLI applies.
    import signaltwin.twin as twin

    def no_jobs(*args, **kwargs):
        raise AssertionError("a job ran")

    monkeypatch.setattr(twin, "_execute_job", no_jobs)
    ods = grid3.straight_od_pairs()[:4]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 80.0) for o, d in ods))]
    clock = SimClock(dt=1.0, horizon=900.0, warmup=0.0, cooldown=0.0)
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        live_loop(grid3, program, TwinSettings(**bad), seed=1, clock=clock)


def test_live_loop_refuses_a_negative_seed_before_any_job(grid3, monkeypatch):
    # The CLI refuses the seed as a config error; the library names it too.
    import signaltwin.twin as twin

    calls = []
    monkeypatch.setattr(twin, "_execute_job", lambda *args, **kwargs: calls.append(args))
    ods = grid3.straight_od_pairs()[:4]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 80.0) for o, d in ods))]
    clock = SimClock(dt=1.0, horizon=600.0, warmup=0.0, cooldown=0.0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        live_loop(grid3, program, TwinSettings(period=300.0), seed=-1, clock=clock)
    assert calls == []


def test_run_parallel_matches_direct_serial_rerun(grid3):
    # Six jobs (2 demands x 3 algorithms): each result must equal a fresh
    # standalone simulation configured identically.
    jobs = make_jobs(grid3, [80.0, 160.0], horizon=600.0, warmup=200.0)
    results = run_parallel(grid3, jobs, parallelism=2)
    assert len(results) == 6
    by_id = {j.job_id: j for j in jobs}
    for job_id, res in zip(sorted(by_id), results):
        job = by_id[job_id]
        oracle = Simulation(
            grid3,
            flows=job.flows,
            algorithm=job.algorithm,
            seed=job.seed,
            clock=SimClock(dt=1.0, horizon=600.0, warmup=200.0, cooldown=0.0),
        ).run()
        assert res.mean_control_delay == oracle.mean_control_delay
        assert res.inserted == oracle.inserted


def test_run_parallel_captures_job_failure(grid3):
    jobs = make_jobs(grid3, [60.0], horizon=600.0, warmup=200.0)
    bad = SimulationJob(
        job_id="zz-bad",
        flows=(Flow("missing:origin", "n1-2:be-1", 50.0),),
        algorithm="dt1",
        seed=1,
        clock=SimClock(horizon=600.0, warmup=200.0, cooldown=0.0),
    )
    results = run_parallel(grid3, jobs + [bad], parallelism=1)
    assert results[-1].error is not None
    assert all(r.error is None for r in results[:-1])


# The nine dimensions that twin_manifest.json describes.
DIMENSION_KEYS = {"PE", "DS", "DD", "MO", "SI", "TP", "CA", "AP", "CG"}


def test_dimensions_complete():
    dims = default_dimensions()
    assert set(dims) == DIMENSION_KEYS
    assert all(dims.values())


def test_build_live_schedule_phases(grid3):
    ods = grid3.straight_od_pairs()[:2]
    program = [
        DemandPhase(0.0, tuple(Flow(o, d, 200.0) for o, d in ods)),
        DemandPhase(600.0, tuple(Flow(o, d, 400.0) for o, d in ods)),
    ]
    schedule = build_live_schedule(program, 1200.0, seed=5)
    first = [row for row in schedule if row[0] < 600.0]
    second = [row for row in schedule if row[0] >= 600.0]
    # Roughly double the rate after the step change.
    assert len(second) > 1.4 * len(first)
    with pytest.raises(ValueError):
        build_live_schedule(
            [DemandPhase(0.0, (Flow("a", "b", 10.0),)),
             DemandPhase(600.0, (Flow("c", "d", 10.0),))],
            1200.0,
            seed=5,
        )


def test_estimate_demand_window():
    insertions = [[10.0, 20.0, 250.0, 280.0], []]
    estimate = estimate_demand(insertions, now=300.0, window=100.0)
    assert estimate.vph == (2 * 36.0, 0.0)  # 2 vehicles in 100 s
    assert estimate.window_length == 100.0


@pytest.fixture(scope="module")
def live_run(grid3):
    ods = grid3.straight_od_pairs()
    low = tuple(Flow(o, d, 50.0) for o, d in ods)
    high = tuple(Flow(o, d, 150.0) for o, d in ods)
    program = [DemandPhase(0.0, low), DemandPhase(900.0, high)]
    settings = TwinSettings(
        factors=(0.8, 1.0, 1.2),
        period=300.0,
        job_horizon=600.0,
        job_warmup=200.0,
        estimate_window=300.0,
    )
    clock = SimClock(dt=1.0, horizon=1800.0, warmup=300.0, cooldown=300.0)
    return live_loop(grid3, program, settings, seed=21, clock=clock)


def test_live_loop_manifest_shape(live_run):
    manifest, result, sim = live_run
    assert set(manifest["dimensions"]) == DIMENSION_KEYS
    assert len(manifest["periods"]) == 5
    for period in manifest["periods"]:
        assert len(period["jobs"]) == 9  # 3 factors x 3 algorithms
        assert not period["degraded"]
        assert period["selection"] is not None
        scores = {
            row["algorithm"]: row["score"]
            for row in period["jobs"]
            if row["candidate"] == period["matched_index"]
        }
        assert period["selection"]["algorithm"] == min(
            scores, key=lambda a: (scores[a], ("baseline", "dt1", "dt2").index(a))
        )


def test_live_loop_swaps_only_at_green_decisions(live_run):
    # A swap applies inside the decision callback, so the step before the
    # swap instant must show a green stage past the minimum green; the
    # post-swap controller may start a transition at that very instant.
    manifest, result, sim = live_run
    signal_by_time = {
        t: (phase, stage, green)
        for t, node, phase, stage, green in signal_rows(sim)
        if node == grid_subject(sim)
    }
    assert manifest["swap_events"], "expected at least one swap"
    period = manifest["settings"]["period"]
    tags_seen = set()
    for event in manifest["swap_events"]:
        t = event["time"]
        assert t % 5.0 == 0.0
        phase, stage, green = signal_by_time[t - 1.0]
        assert stage == "green"
        assert green > 5.0
        # Every swap traces back to exactly one period evaluation and can
        # only apply once that period's boundary has passed.
        assert event["tag"] not in tags_seen
        tags_seen.add(event["tag"])
        p = int(event["tag"].removeprefix("period-"))
        assert t >= (p + 1) * period


def grid_subject(sim):
    return sim.network.subject_intersection


def test_live_loop_deterministic(grid3):
    ods = grid3.straight_od_pairs()[:4]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 80.0) for o, d in ods))]
    settings = TwinSettings(factors=(1.0,), period=300.0, job_horizon=600.0, job_warmup=200.0)
    clock = SimClock(dt=1.0, horizon=600.0, warmup=100.0, cooldown=100.0)
    m1, r1, _ = live_loop(grid3, program, settings, seed=9, clock=clock)
    m2, r2, _ = live_loop(grid3, program, settings, seed=9, clock=clock)
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    assert r1.to_dict() == r2.to_dict()


def test_live_loop_single_candidate_matches_index_zero(grid3):
    ods = grid3.straight_od_pairs()[:4]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 100.0) for o, d in ods))]
    settings = TwinSettings(factors=(1.0,), period=300.0, job_horizon=600.0, job_warmup=200.0)
    clock = SimClock(dt=1.0, horizon=900.0, warmup=150.0, cooldown=150.0)
    manifest, _, _ = live_loop(grid3, program, settings, seed=13, clock=clock)
    assert len(manifest["periods"]) == 2
    assert all(p["matched_index"] == 0 for p in manifest["periods"])
    assert all(len(p["jobs"]) == 3 for p in manifest["periods"])


def test_live_loop_estimates_every_od_pair(grid3):
    # A last flow that never departs keeps its entry in the estimate and
    # in every candidate, so candidates index the flows of the program.
    ods = grid3.straight_od_pairs()[:4]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 80.0 * (i < 3)) for i, (o, d) in enumerate(ods)))]
    settings = TwinSettings(factors=(0.8, 1.0), period=300.0, job_horizon=300.0,
                            job_warmup=100.0)
    clock = SimClock(dt=1.0, horizon=900.0, warmup=100.0, cooldown=100.0)
    manifest, _, _ = live_loop(grid3, program, settings, seed=9, clock=clock)
    assert len(manifest["periods"]) == 2
    for period in manifest["periods"]:
        assert len(period["measured_vph"]) == 4 and period["measured_vph"][3] == 0.0
        assert [len(c) for c in period["candidates"]] == [4, 4]


def test_subject_flows_of_the_straight_pairs_are_the_two_corridors():
    grid = build_grid(3, 3)
    ods = grid.straight_od_pairs()
    kept = _subject_flows(grid, ods)
    assert kept == [1, 4, 7, 10]
    # The middle row and the middle column, in both directions.
    assert {ods[i][0] for i in kept} == {"be-1:n1-2", "bw-1:n1-0", "bn-1:n2-1", "bs-1:n0-1"}


def test_subject_flows_keep_a_pair_that_shares_only_a_downstream_segment(grid3):
    assert _subject_flows(grid3, [COLUMN_0, JOINING, THROUGH]) == [1, 2]
    # ALONG_ROW_2 joins through JOINING, which is kept only after it is seen.
    assert _subject_flows(grid3, [ALONG_ROW_2, COLUMN_0, JOINING, THROUGH]) == [0, 2, 3]


def test_subject_flows_keep_an_unroutable_pair(grid3):
    # Kept so that a job fails on it as it would on every flow.
    ods = [COLUMN_0, ("missing:origin", "n1-2:be-1"), ("n0-0:n0-1", "n2-1:bn-1")]
    assert _subject_flows(grid3, ods) == [1, 2]


def test_subject_flows_of_no_pairs(grid3):
    assert _subject_flows(grid3, []) == []


def test_live_loop_jobs_run_the_subject_slice_at_the_candidate_rates(grid3, monkeypatch):
    import signaltwin.twin as twin

    jobs = []
    run = twin._execute_job

    def recording(network, job, *args):
        jobs.append(job)
        return run(network, job, *args)

    monkeypatch.setattr(twin, "_execute_job", recording)
    ods = [COLUMN_0, THROUGH, TURN_AT_N0_2, JOINING]
    program = [DemandPhase(0.0, tuple(Flow(o, d, 120.0, 1.5) for o, d in ods))]
    settings = TwinSettings(factors=(0.8, 1.2), period=300.0, job_horizon=300.0,
                            job_warmup=100.0)
    clock = SimClock(dt=1.0, horizon=900.0, warmup=100.0, cooldown=100.0)
    manifest, _, _ = live_loop(grid3, program, settings, seed=4, clock=clock)
    batches = [[job for job in jobs if job.job_id.startswith(f"p00{p}-")] for p in (0, 1)]
    assert len(manifest["periods"]) == 2 and sum(map(len, batches)) == len(jobs)
    for batch, period in zip(batches, manifest["periods"]):
        assert len(batch) == 6
        for job in batch:
            rates = period["candidates"][job.candidate_index]
            assert job.flows == tuple(Flow(*ods[i], rates[i], 1.5) for i in (1, 3))


@hsettings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.integers(min_value=2, max_value=4),
    cols=st.integers(min_value=2, max_value=4),
    lanes=st.integers(min_value=1, max_value=2),
    segment_length=st.sampled_from([120.0, 250.0, 400.0]),
    pocket_length=st.sampled_from([20.0, 60.0]),
    dt=st.sampled_from([0.5, 1.0]),
    algorithm=st.sampled_from(ALGORITHMS),
    departure_mode=st.sampled_from(DEPARTURE_MODES),
    carryover_turns=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_a_job_on_the_subject_slice_matches_the_job_on_every_flow(
    rows, cols, lanes, segment_length, pocket_length, dt, algorithm, departure_mode,
    carryover_turns, seed, data,
):
    net = build_grid(rows, cols, segment_length, lanes, pocket_length, 13.89)
    pairs = [(o, d) for o in net.peripheral_entries() for d in net.peripheral_exits()]
    ods = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True),
                    label="ods")
    # Up to 1800 vph a flow, which spills back over short one-lane segments.
    rates = st.sampled_from([0.0, 150.0, 900.0, 1800.0])
    flows = [Flow(o, d, data.draw(rates, label="vph")) for o, d in ods]

    def at_the_subject(job_flows):
        sim = Simulation(
            net, flows=job_flows, algorithm=algorithm, seed=seed,
            clock=SimClock(dt=dt, horizon=300.0, warmup=0.0, cooldown=0.0),
            departure_mode=departure_mode, carryover_turns=carryover_turns,
        )
        result = sim.run()
        phases = [row for row in signal_rows(sim) if row[1] == net.subject_intersection]
        return result.control_delays, result.movement_stopped_delays, phases

    sliced = [flows[i] for i in _subject_flows(net, ods)]
    assert at_the_subject(sliced) == at_the_subject(flows)


@pytest.mark.parametrize(
    "refuse, where",
    [
        pytest.param(lambda grid, flows: Simulation(grid, flows=flows), "", id="simulation"),
        pytest.param(lambda grid, flows: check_demand_program([DemandPhase(0.0, flows)]),
                     r"demand_program\[0\]\.", id="demand-program"),
    ],
)
def test_a_repeated_origin_destination_pair_is_refused(grid3, refuse, where):
    # Two flows of one pair would draw one random stream and depart in lockstep.
    flows = (Flow(*THROUGH, 60.0), Flow(*COLUMN_0, 60.0), Flow(*THROUGH, 90.0))
    with pytest.raises(ValueError, match=rf"^{where}flows\[2\]: .* repeats {where}flows\[0\]$"):
        refuse(grid3, flows)


def test_live_loop_stable_selection_swaps_once(grid3):
    # Constant demand with a clearly winning controller: the manifest
    # records at most the initial swap and the controller stays put.
    ods = grid3.straight_od_pairs()
    program = [DemandPhase(0.0, tuple(Flow(o, d, 60.0) for o, d in ods))]
    settings = TwinSettings(factors=(1.0,), period=300.0, job_horizon=600.0, job_warmup=200.0)
    clock = SimClock(dt=1.0, horizon=1500.0, warmup=300.0, cooldown=300.0)
    manifest, _, _ = live_loop(grid3, program, settings, seed=2, clock=clock)
    selections = [p["selection"]["algorithm"] for p in manifest["periods"]]
    if len(set(selections)) == 1:
        expected = 0 if selections[0] == "baseline" else 1
        assert len(manifest["swap_events"]) == expected


def test_twin_settings_validation():
    with pytest.raises(ValueError):
        TwinSettings(factors=())
    with pytest.raises(ValueError):
        TwinSettings(factors=(1.0, -0.5))
    with pytest.raises(ValueError):
        TwinSettings(period=0.0)
    with pytest.raises(ValueError, match="estimate_window"):
        TwinSettings(estimate_window=0.0)
    with pytest.raises(ValueError, match="job_warmup"):
        TwinSettings(job_warmup=1000.0, job_horizon=900.0)
    with pytest.raises(ValueError, match="job_cooldown"):
        TwinSettings(job_warmup=600.0, job_cooldown=400.0, job_horizon=900.0)
    for parallelism in (0, -1, 1.5):
        with pytest.raises(ValueError, match="parallelism"):
            TwinSettings(parallelism=parallelism)
    with pytest.raises(ValueError, match="departure_mode"):
        TwinSettings(departure_mode="poison")
    # Warm-up plus cool-down may fill the whole job horizon.
    TwinSettings(job_warmup=600.0, job_cooldown=300.0, job_horizon=900.0)
    with pytest.raises(ValueError):
        DemandEstimate(window_length=0.0, vph=(1.0,))


@pytest.mark.parametrize(
    "make, kwargs, field",
    [
        pytest.param(VehicleParams, {"max_accel": math.nan}, "max_accel",
                     id="vehicle-max-accel-nan"),
        pytest.param(VehicleParams, {"length": math.nan}, "length", id="vehicle-length-nan"),
        pytest.param(VehicleParams, {"length": math.inf}, "length", id="vehicle-length-inf"),
        pytest.param(VehicleParams, {"max_decel": math.inf}, "max_decel",
                     id="vehicle-max-decel-inf"),
        pytest.param(VehicleParams, {"min_gap": math.inf}, "min_gap", id="vehicle-min-gap-inf"),
        pytest.param(SimClock, {"dt": math.nan}, "dt", id="clock-dt-nan"),
        pytest.param(SimClock, {"dt": math.inf}, "dt", id="clock-dt-inf"),
        pytest.param(SimClock, {"warmup": math.nan}, "warmup", id="clock-warmup-nan"),
        pytest.param(TwinSettings, {"estimate_window": math.nan}, "estimate_window",
                     id="twin-estimate-window-nan"),
        pytest.param(TwinSettings, {"estimate_window": math.inf}, "estimate_window",
                     id="twin-estimate-window-inf"),
        pytest.param(TwinSettings, {"period": math.nan}, "period", id="twin-period-nan"),
        pytest.param(TwinSettings, {"job_cooldown": math.nan}, "job_cooldown",
                     id="twin-job-cooldown-nan"),
        pytest.param(TwinSettings, {"factors": (1.0, math.nan)}, "factors",
                     id="twin-factor-nan"),
        pytest.param(DemandEstimate, {"window_length": math.nan, "vph": (1.0,)},
                     "window_length", id="estimate-window-length-nan"),
        pytest.param(DemandEstimate, {"window_length": 300.0, "vph": (1.0, math.inf)},
                     "vph", id="estimate-vph-inf"),
    ],
)
def test_value_objects_refuse_non_finite_numbers(make, kwargs, field):
    # A non-finite number must fail where it enters the library, named by
    # its field, and never become a silent zero or an empty run.
    with pytest.raises(ValueError, match=rf"^{field} must be .*finite"):
        make(**kwargs)
