"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line; exact-semantics checks run at
zero tolerance, directional checks at the thresholds stated with them.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from signaltwin.cli import main as cli_main
from signaltwin.controllers import ALGORITHMS, DecisionInput, DECIDE_BY_ALGORITHM
from signaltwin.delay import (
    STOP_SPEED_THRESHOLD,
    DelayLedger,
    on_approach_transition,
    update_waiting,
    vehicle_delay_dt1,
    vehicle_delay_dt2,
)
from signaltwin.metrics import aasd, los_from_control_delay, sample_skewness
from signaltwin.network import ALL_MOVEMENTS, Movement, build_grid
from signaltwin.traffic import Flow, SimClock, Simulation, scenario_catalog
from signaltwin.twin import (
    DemandPhase,
    SimulationJob,
    TwinSettings,
    live_loop,
    run_parallel,
)
from test_traffic import signal_rows

THROUGH = ("EBT", "WBT", "NBT", "SBT")


@contextmanager
def criterion(number, name, capsys):
    # The verdict line bypasses capture so it appears in any pytest run.
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {name}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def default_net():
    return build_grid(3, 3)


@pytest.fixture(scope="module")
def asym_flows(default_net):
    # Heavy east/west through demand at the subject, light north/south.
    return (
        Flow("bw-1:n1-0", "n1-2:be-1", 500.0),
        Flow("be-1:n1-2", "n1-0:bw-1", 500.0),
        Flow("bs-0:n0-0", "n2-0:bn-0", 80.0),
        Flow("bn-1:n2-1", "n0-1:bs-1", 80.0),
        Flow("bs-1:n0-1", "n2-1:bn-1", 80.0),
    )


@pytest.fixture(scope="module")
def asym_results(default_net, asym_flows):
    """15 runs: 3 algorithms x 5 seeds on the asymmetric scenario."""
    start = time.perf_counter()
    results = {}
    for algo in ALGORITHMS:
        results[algo] = [
            Simulation(default_net, flows=asym_flows, algorithm=algo, seed=seed).run()
            for seed in range(5)
        ]
    return results, time.perf_counter() - start


def test_criterion_1_phase_machine_exactness(default_net, capsys):
    with criterion(1, "phase-machine exactness", capsys):
        cat = scenario_catalog(40.0, 0.25, default_net.straight_od_pairs())
        flows = cat[4].flows  # a moderate-demand scenario
        start = time.perf_counter()
        sim = Simulation(default_net, flows=flows, algorithm="dt1", seed=42)
        sim.run()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"3,600 s run took {elapsed:.2f}s (budget 5s)"

        rows = [
            (t, phase, stage)
            for t, node, phase, stage, _ in signal_rows(sim)
            if node == default_net.subject_intersection
        ]
        runs = []
        for t, phase, stage in rows:
            if runs and runs[-1][1] == phase and runs[-1][2] == stage:
                runs[-1][3] += 1
            else:
                runs.append([t, phase, stage, 1])

        changes = 0
        for i, (t, phase, stage, steps) in enumerate(runs):
            if stage == "yellow":
                changes += 1
                assert steps == 2, f"yellow at t={t} lasted {steps}s"
                assert t % 5.0 == 0.0, f"transition began off-cadence at t={t}"
                assert runs[i - 1][2] == "green"
                assert phase == runs[i - 1][1] + 1
                assert runs[i + 1][1] == 8 and runs[i + 1][2] == "all_red"
                assert runs[i + 1][3] == 1, "all-red not exactly 1 s"
                assert runs[i + 2][2] == "green"
            if stage == "green" and i + 1 < len(runs):
                assert steps > 5, f"green of {steps}s violated the minimum"
        assert changes > 10, "run produced too few transitions to judge"

        # No two conflicting movements ever show green simultaneously.
        from signaltwin.signals import PHASE_MOVEMENTS, phase_for_movement

        allowed = {frozenset(p) for p in PHASE_MOVEMENTS.values()} | {frozenset()}
        for _, phase, _ in rows:
            greens = frozenset(
                m for m in Movement if phase_for_movement(phase, m) == "G"
            )
            assert greens in allowed


def test_criterion_2_delay_semantics_oracle(capsys):
    with criterion(2, "delay-semantics oracle", capsys):
        rng = random.Random(12345)
        dt = 1.0
        for _ in range(10_000):
            n = rng.randrange(1, 60)
            speeds = [
                rng.choice([0.0, 0.03, 0.09, 0.0999, 0.1, 0.12, 2.0, 13.89])
                for _ in range(n)
            ]
            transition_at = rng.randrange(0, n + 1)
            ledger = DelayLedger()
            # Oracle state, tracked independently.
            oracle_acc = 0.0
            oracle_entry = 0.0
            oracle_carried = 0.0
            for i, v in enumerate(speeds):
                if i == transition_at:
                    on_approach_transition(ledger)
                    oracle_carried = oracle_acc - oracle_entry
                    oracle_entry = oracle_acc
                update_waiting(ledger, v, dt)
                if v < STOP_SPEED_THRESHOLD:
                    oracle_acc += dt
            slow_steps = sum(1 for v in speeds if v < STOP_SPEED_THRESHOLD)
            assert ledger.accumulated == dt * slow_steps
            assert vehicle_delay_dt1(ledger) == oracle_acc - oracle_entry
            assert vehicle_delay_dt2(ledger) == (oracle_acc - oracle_entry) + oracle_carried


def test_criterion_3_controller_oracle_equivalence(capsys):
    with criterion(3, "controller oracle equivalence", capsys):
        chain = (
            (0, (Movement.NBT, Movement.SBT)),
            (2, (Movement.WBT, Movement.EBT)),
            (4, (Movement.WBL, Movement.EBL)),
            (6, (Movement.NBL, Movement.SBL)),
        )

        def oracle(values):
            best = max(values[m] for m in Movement)
            for phase, pair in chain:
                for m in pair:
                    if values[m] == best:
                        return phase, m
            raise AssertionError

        for algo in ALGORITHMS:
            decide = DECIDE_BY_ALGORITHM[algo]
            rng = random.Random(1000 + ALGORITHMS.index(algo))
            for _ in range(10_000):
                values = {
                    m: rng.choice([0.0, round(rng.uniform(0, 60), 3)]) for m in Movement
                }
                decision = decide(DecisionInput(values=tuple(values[m] for m in ALL_MOVEMENTS)))
                assert (decision.proposed_phase, decision.winning_movement) == oracle(values)

        movements = list(Movement)
        for mask in range(1, 256):
            tied = {movements[i] for i in range(8) if mask & (1 << i)}
            values = {m: (7.5 if m in tied else 1.5) for m in Movement}
            for algo in ALGORITHMS:
                decision = DECIDE_BY_ALGORITHM[algo](
                    DecisionInput(values=tuple(values[m] for m in ALL_MOVEMENTS))
                )
                assert (decision.proposed_phase, decision.winning_movement) == oracle(values)


def test_criterion_4_los_table_fidelity(capsys):
    with criterion(4, "LOS table fidelity", capsys):
        cases = [
            (0.0, "A"), (5.0, "A"), (10.0, "A"),
            (10.000001, "B"), (15.0, "B"), (20.0, "B"),
            (25.0, "C"), (35.0, "C"),
            (45.0, "D"), (55.0, "D"),
            (70.0, "E"), (80.0, "E"),
            (80.000001, "F"), (300.0, "F"),
        ]
        for delay, grade in cases:
            assert los_from_control_delay(delay).grade == grade, (delay, grade)


def test_criterion_5_determinism(tmp_path, default_net, capsys):
    with criterion(5, "determinism", capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "horizon": 1200.0, "warmup": 200.0, "cooldown": 200.0,
            "scenario": 2, "algorithms": ["dt1"],
        }))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_main(["simulate", "--config", str(cfg), "--seed", "42",
                             "--out", str(out)]) == 0
        for name in ("trajectory.csv", "signals.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

        ods = default_net.straight_od_pairs()[:4]
        jobs = [
            SimulationJob(
                job_id=f"c0-{algo}",
                flows=tuple(Flow(o, d, 80.0) for o, d in ods),
                algorithm=algo, seed=5,
                clock=SimClock(horizon=600.0, warmup=200.0, cooldown=0.0),
            )
            for algo in ALGORITHMS
        ]
        serial = run_parallel(default_net, jobs, parallelism=1)
        threaded = run_parallel(default_net, jobs, parallelism=3)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in threaded]


def test_criterion_6_asymmetric_delay_redistribution(asym_results, capsys):
    with criterion(6, "asymmetric-demand delay redistribution", capsys):
        results, elapsed = asym_results
        assert elapsed < 120.0, f"15 runs took {elapsed:.1f}s (budget 120s)"

        seed_avg = {}
        for algo in ALGORITHMS:
            seed_avg[algo] = {
                m: sum(aasd(r.movement_delay_values(m)) for r in results[algo]) / 5.0
                for m in THROUGH
            }
        base = seed_avg["baseline"]
        base_max = max(base.values())
        base_spread = base_max - min(base.values())
        print(f"  baseline AASD: {base}")
        for algo in ("dt1", "dt2"):
            values = seed_avg[algo]
            spread = max(values.values()) - min(values.values())
            print(f"  {algo} AASD: {values}")
            assert max(values.values()) < base_max, f"{algo} did not reduce the peak"
            assert spread < 0.5 * base_spread, (
                f"{algo} spread {spread:.2f} not below half of baseline {base_spread:.2f}"
            )


def test_criterion_7_low_demand_dt2_vs_baseline(default_net, capsys):
    with criterion(7, "low-demand dt2 vs baseline", capsys):
        cat = scenario_catalog(40.0, 0.25, default_net.straight_od_pairs())
        wins, rows = 0, []
        for k in (1, 2, 3):
            flows = cat[k - 1].flows
            for seed in range(5):
                base = Simulation(
                    default_net, flows=flows, algorithm="baseline", seed=seed
                ).run()
                alt = Simulation(
                    default_net, flows=flows, algorithm="dt2", seed=seed
                ).run()
                win = alt.mean_control_delay <= base.mean_control_delay
                wins += win
                reduction = (
                    (base.mean_control_delay - alt.mean_control_delay)
                    / base.mean_control_delay * 100.0
                    if base.mean_control_delay > 0 else 0.0
                )
                rows.append((k, seed, reduction, win))
        for k, seed, reduction, win in rows:
            print(f"  scenario {k} seed {seed}: reduction {reduction:+.1f}% win={win}")
        print(f"  dt2 wins {wins}/15")
        assert wins >= 12, f"dt2 won only {wins}/15 low-demand runs"


def test_criterion_8_dsd_right_skew(asym_results, capsys):
    with criterion(8, "stopped-delay right skew", capsys):
        results, _ = asym_results
        for algo in ALGORITHMS:
            for seed, result in enumerate(results[algo]):
                pooled = [
                    v
                    for m in result.movement_stopped_delays
                    for v in result.movement_delay_values(m)
                ]
                skew = sample_skewness(pooled)
                assert skew > 0.0, f"{algo} seed {seed}: skewness {skew:.3f} not positive"


def test_criterion_9_twin_loop_soundness(default_net, capsys):
    with criterion(9, "twin loop soundness", capsys):
        ods = default_net.straight_od_pairs()
        program = [
            DemandPhase(0.0, tuple(Flow(o, d, 50.0) for o, d in ods)),
            DemandPhase(900.0, tuple(Flow(o, d, 150.0) for o, d in ods)),
        ]
        settings = TwinSettings(
            factors=(0.8, 1.0, 1.2), period=300.0,
            job_horizon=600.0, job_warmup=200.0,
        )
        clock = SimClock(dt=1.0, horizon=1800.0, warmup=300.0, cooldown=300.0)
        manifest, _, sim = live_loop(
            default_net, program, settings, seed=77, clock=clock
        )

        assert manifest["periods"], "twin run produced no evaluation periods"
        registry = list(ALGORITHMS)
        for period in manifest["periods"]:
            assert not period["degraded"]
            matched = period["matched_index"]
            scores = {
                row["algorithm"]: row["score"]
                for row in period["jobs"]
                if row["candidate"] == matched
            }
            chosen = period["selection"]["algorithm"]
            best = min(scores, key=lambda a: (scores[a], registry.index(a)))
            assert chosen == best, f"period {period['period']} selection not minimal"
            assert scores[chosen] <= min(scores.values())

        signal_by_time = {
            t: (stage, green)
            for t, node, _, stage, green in signal_rows(sim)
            if node == default_net.subject_intersection
        }
        for event in manifest["swap_events"]:
            t = event["time"]
            assert t % 5.0 == 0.0, f"swap at t={t} off the decision cadence"
            stage, green = signal_by_time[t - clock.dt]
            assert stage == "green", f"swap at t={t} outside a green stage"
            assert green > 5.0
