"""Decision-chain fidelity against a brute-force oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from signaltwin.controllers import (
    ALGORITHMS,
    DECIDE_BY_ALGORITHM,
    DecisionInput,
    approach_density,
    baseline_decide,
    dt1_decide,
    dt2_decide,
    validate_algorithm,
)
from signaltwin.delay import DelayLedger, average_approach_delay
from signaltwin.network import ALL_MOVEMENTS, Movement

# The pseudocode's if/else chain, restated independently for the oracle.
CHAIN = (
    (0, ("NBT", "SBT")),
    (2, ("WBT", "EBT")),
    (4, ("WBL", "EBL")),
    (6, ("NBL", "SBL")),
)


def oracle(values):
    """Brute force: find the max, walk the chain, first hit wins."""
    best = max(values[m] for m in Movement)
    for phase, pair in CHAIN:
        for name in pair:
            if values[Movement(name)] == best:
                return phase, Movement(name), best
    raise AssertionError("unreachable for finite inputs")


def make_input(values):
    # The decision input is indexed by movement position; the oracle keeps
    # its own Movement-keyed values as the independent reference.
    return DecisionInput(values=tuple(values[m] for m in ALL_MOVEMENTS), intersection="x", time=0.0)


def test_approach_density_examples():
    assert approach_density(30, 2, 0.5) == 30.0
    assert approach_density(0, 2, 0.5) == 0.0
    assert approach_density(12, 3, 0.25) == 16.0


def test_approach_density_validation():
    with pytest.raises(ValueError):
        approach_density(1, 0, 0.5)
    with pytest.raises(ValueError):
        approach_density(1, 2, 0.0)


def test_baseline_max_ebt_gives_phase_2():
    values = {m: 1.0 for m in Movement}
    values[Movement.EBT] = 9.0
    decision = baseline_decide(make_input(values))
    assert decision.proposed_phase == 2
    assert decision.winning_movement is Movement.EBT
    assert decision.winning_value == 9.0


def test_all_equal_takes_first_branch():
    decision = baseline_decide(make_input({m: 3.3 for m in Movement}))
    assert decision.proposed_phase == 0
    assert decision.winning_movement is Movement.NBT


def test_dt1_starved_through_example():
    values = {m: 6.6 for m in Movement}
    values[Movement.EBT] = 46.5
    assert dt1_decide(make_input(values)).proposed_phase == 2


def test_dt1_all_zero_degenerate():
    assert dt1_decide(make_input({m: 0.0 for m in Movement})).proposed_phase == 0


def test_dt2_large_carried_left():
    values = {m: 2.0 for m in Movement}
    values[Movement.NBL] = 30.0
    assert dt2_decide(make_input(values)).proposed_phase == 6


@pytest.mark.parametrize("token", ALGORITHMS, ids=lambda token: f"{token}_decide")
def test_thousand_random_inputs_match_oracle(token):
    rng = random.Random(ALGORITHMS.index(token))
    for _ in range(1000):
        values = {m: rng.choice([0.0, rng.uniform(0, 50)]) for m in Movement}
        decision = DECIDE_BY_ALGORITHM[token](make_input(values))
        phase, movement, best = oracle(values)
        assert decision.proposed_phase == phase
        assert decision.winning_movement is movement
        assert decision.winning_value == best


def test_all_255_tie_patterns():
    movements = list(Movement)
    for mask in range(1, 256):
        tied = {movements[i] for i in range(8) if mask & (1 << i)}
        values = {m: (1.0 if m in tied else 0.25) for m in Movement}
        decision = baseline_decide(make_input(values))
        expected_phase, expected_movement, _ = oracle(values)
        assert decision.proposed_phase == expected_phase
        assert decision.winning_movement is expected_movement


def test_dt2_with_ledger_population_matches_composed_oracle():
    # Random ledger populations per approach: decision equals the mean
    # computed independently, then pushed through the chain oracle.
    rng = random.Random(29)
    for _ in range(200):
        populations = {}
        for movement in Movement:
            ledgers = []
            for _ in range(rng.randrange(0, 5)):
                acc = rng.uniform(0, 40)
                entry = rng.uniform(0, acc)
                ledgers.append(
                    DelayLedger(
                        accumulated=acc,
                        entry_accumulated=entry,
                        carried_over=rng.uniform(0, 20),
                    )
                )
            populations[movement] = ledgers
        values = {
            m: average_approach_delay(m.value, populations[m], "dt2").average
            for m in Movement
        }
        decision = dt2_decide(make_input(values))
        phase, movement, _ = oracle(values)
        assert (decision.proposed_phase, decision.winning_movement) == (phase, movement)


def test_dt1_dt2_agree_without_carryover():
    rng = random.Random(31)
    for _ in range(100):
        ledgers = {
            m: [
                DelayLedger(accumulated=rng.uniform(0, 30))
                for _ in range(rng.randrange(0, 4))
            ]
            for m in Movement
        }
        v1 = {m: average_approach_delay(m.value, ledgers[m], "dt1").average for m in Movement}
        v2 = {m: average_approach_delay(m.value, ledgers[m], "dt2").average for m in Movement}
        assert dt1_decide(make_input(v1)) == dt2_decide(make_input(v2))


# Values are either exactly zero or of ordinary magnitude, so scaling by
# c > 0 cannot collapse distinct inputs through underflow.
@given(
    base=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
        ),
        min_size=8,
        max_size=8,
    ),
    scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_scale_invariance_of_choice(base, scale):
    values = dict(zip(Movement, base))
    scaled = {m: v * scale for m, v in values.items()}
    assert (
        baseline_decide(make_input(values)).proposed_phase
        == baseline_decide(make_input(scaled)).proposed_phase
    )


def test_decision_input_validation():
    with pytest.raises(ValueError, match="tuple of 8 values"):
        DecisionInput(values=(1.0,))
    with pytest.raises(ValueError, match="tuple of 8 values"):
        DecisionInput(values={m: 1.0 for m in Movement})
    bad = [1.0] * 8
    bad[ALL_MOVEMENTS.index(Movement.SBL)] = float("nan")
    with pytest.raises(ValueError, match="SBL"):
        DecisionInput(values=tuple(bad))
    bad[ALL_MOVEMENTS.index(Movement.SBL)] = -1.0
    with pytest.raises(ValueError, match="SBL"):
        DecisionInput(values=tuple(bad))


def test_algorithm_registry():
    assert ALGORITHMS == ("baseline", "dt1", "dt2")
    assert validate_algorithm("dt1") == "dt1"
    with pytest.raises(ValueError) as excinfo:
        validate_algorithm("fuzzy")
    for token in ALGORITHMS:
        assert token in str(excinfo.value)
