"""Phase table fidelity and transition interlocks."""

import pytest
from hypothesis import given, settings, strategies as st

from signaltwin.network import Movement
from signaltwin.signals import (
    ALL_RED_PHASE,
    ASPECT_NAMES,
    ASPECTS_PERMISSIVE,
    ASPECTS_PROTECTED,
    GREEN_PHASES,
    GREEN_PHASE_FOR_MOVEMENT,
    MOVEMENT_INDEX,
    PHASE_MOVEMENTS,
    ControllerTimer,
    PhaseChangeRejected,
    interval_rows,
    phase_for_movement,
)


def test_phase_table_rows():
    assert phase_for_movement(0, Movement.NBT) == "G"
    assert phase_for_movement(0, Movement.SBT) == "G"
    assert phase_for_movement(0, Movement.EBT) == "R"
    for movement in Movement:
        assert phase_for_movement(8, movement) == "R"
    assert phase_for_movement(5, Movement.EBL) == "Y"
    assert phase_for_movement(5, Movement.WBL) == "Y"
    for movement in Movement:
        if movement not in (Movement.EBL, Movement.WBL):
            assert phase_for_movement(5, movement) == "R"


def test_phase_table_complete_mapping():
    # Each green phase serves exactly its pair; yellows mirror greens.
    for green, pair in PHASE_MOVEMENTS.items():
        for movement in Movement:
            expected_g = "G" if movement in pair else "R"
            expected_y = "Y" if movement in pair else "R"
            assert phase_for_movement(green, movement) == expected_g
            assert phase_for_movement(green + 1, movement) == expected_y


def test_no_conflicting_greens_any_phase():
    allowed = {frozenset(pair) for pair in PHASE_MOVEMENTS.values()} | {frozenset()}
    for phase in list(GREEN_PHASES) + [p + 1 for p in GREEN_PHASES] + [ALL_RED_PHASE]:
        greens = frozenset(m for m in Movement if phase_for_movement(phase, m) == "G")
        assert greens in allowed


def test_unknown_phase_rejected():
    with pytest.raises(ValueError):
        phase_for_movement(9, Movement.NBT)


def test_each_movement_has_exactly_one_green_phase():
    assert len(GREEN_PHASE_FOR_MOVEMENT) == len(Movement)
    for movement in Movement:
        serving = [p for p in GREEN_PHASES if phase_for_movement(p, movement) == "G"]
        assert serving == [GREEN_PHASE_FOR_MOVEMENT[MOVEMENT_INDEX[movement]]]


def run_timer(timer, n_steps, proposals):
    """Drive a timer with a scripted per-step proposal map: step -> phase."""
    displayed = []
    for k in range(n_steps):
        phase = timer.tick(k, lambda k=k: proposals.get(k))
        displayed.append(phase)
    return displayed


def test_transition_sequence_0_to_6():
    timer = ControllerTimer(dt=1.0)
    displayed = run_timer(timer, 20, {10: 6})
    assert displayed[:10] == [0] * 10
    assert displayed[10:12] == [1, 1]  # yellow, two seconds
    assert displayed[12] == 8          # all-red, one second
    assert displayed[13] == 6
    assert all(p == 6 for p in displayed[13:])


def test_same_phase_proposal_is_noop():
    timer = ControllerTimer(dt=1.0)
    displayed = run_timer(timer, 30, {10: 0, 15: 0, 20: 0, 25: 0})
    assert displayed == [0] * 30
    assert timer.green_elapsed == 30.0


def test_request_rejected_mid_transition():
    timer = ControllerTimer(dt=1.0)
    timer.tick(0, None)
    timer.request_phase(6)
    assert timer.stage == "yellow"
    with pytest.raises(PhaseChangeRejected):
        timer.request_phase(2)
    with pytest.raises(ValueError):
        timer.request_phase(3)  # not a green-serving phase


def test_back_to_back_requests_enumeration():
    # A second request during the transition must not alter the sequence;
    # compare against the single-request trace over 20 steps.
    single = ControllerTimer(dt=1.0)
    expected = run_timer(single, 20, {10: 6})

    timer = ControllerTimer(dt=1.0)
    displayed = []
    for k in range(20):
        phase = timer.tick(k, (lambda: 6) if k == 10 else None)
        if timer.stage != "green":
            with pytest.raises(PhaseChangeRejected):
                timer.request_phase(2)
        displayed.append(phase)
    assert displayed == expected


def test_decision_skipped_before_min_green():
    # A proposal at the 5 s boundary with only 4..5 s of green is ignored.
    calls = []

    def source():
        calls.append(True)
        return 6

    timer = ControllerTimer(dt=1.0)
    for k in range(6):
        timer.tick(k, source)
    assert not calls  # green_elapsed was 5 s at k=5: still <= minimum
    timer.tick(9, source)  # not a boundary
    assert not calls
    timer.tick(10, source)
    assert calls  # first consultation at 10 s of green


def test_decision_cadence_only_on_boundaries():
    calls = []
    timer = ControllerTimer(dt=1.0)

    def source():
        calls.append(True)
        return 0

    for k in range(41):
        timer.tick(k, source)
    # Eligible boundaries: 10, 15, 20, 25, 30, 35, 40.
    assert len(calls) == 7


def test_log_scan_sixty_steps():
    timer = ControllerTimer(dt=1.0)
    rows = []
    for k in range(60):
        phase = timer.tick(k, (lambda: 2) if k == 15 else None)
        rows.append((k, phase, timer.stage))
    runs = []
    for k, phase, stage in rows:
        if runs and runs[-1][0] == (phase, stage):
            runs[-1][1] += 1
        else:
            runs.append([(phase, stage), 1])
    lengths = {state: n for state, n in runs}
    assert lengths[(1, "yellow")] == 2
    assert lengths[(8, "all_red")] == 1
    completed_greens = [n for (phase, stage), n in runs[:-1] if stage == "green"]
    assert all(n > 5 for n in completed_greens)


def test_fractional_dt_keeps_exact_boundaries():
    timer = ControllerTimer(dt=0.5)
    displayed = []
    for k in range(60):  # 30 seconds
        displayed.append(timer.tick(k, (lambda: 4) if k == 20 else None))
    # Yellow spans exactly 2 s = 4 steps, all-red 1 s = 2 steps.
    assert displayed[20:24] == [1, 1, 1, 1]
    assert displayed[24:26] == [8, 8]
    assert displayed[26] == 4


def test_permissive_display_follows_parallel_through():
    def shown(table, phase, movement):
        return ASPECT_NAMES[table[phase][MOVEMENT_INDEX[movement]]]

    # Phase 0: NS through green.
    assert shown(ASPECTS_PERMISSIVE, 0, Movement.NBL) == "G"
    assert shown(ASPECTS_PROTECTED, 0, Movement.NBL) == "R"
    assert shown(ASPECTS_PERMISSIVE, 0, Movement.EBL) == "R"
    # In every phase a left movement shows its through movement's
    # protected aspect, and a through movement shows its own.
    assert len(ASPECTS_PERMISSIVE) == ALL_RED_PHASE + 1
    for phase in range(ALL_RED_PHASE + 1):
        for movement in Movement:
            followed = Movement(movement.value[0] + "BT")
            assert shown(ASPECTS_PERMISSIVE, phase, movement) == phase_for_movement(
                phase, followed
            ), (phase, movement)


def test_timer_validates_configuration():
    with pytest.raises(ValueError):
        ControllerTimer(dt=1.0, initial_phase=1)
    with pytest.raises(ValueError):
        ControllerTimer(dt=0.3)  # does not divide the cadence cleanly


@pytest.mark.parametrize("dt", [float("nan"), 0.0, -1.0, float("inf")],
                         ids=["nan", "zero", "negative", "infinite"])
def test_timer_checks_dt_itself(dt):
    # A bad dt is named as dt, not as the first duration divided by it.
    with pytest.raises(ValueError, match=r"^dt must be a positive finite number"):
        ControllerTimer(dt)


def _run_scripted(dt, initial, proposals, n_steps, on_events):
    """Run a timer for ``n_steps`` steps whose source hands out ``proposals``
    in turn, ticking every step or, if ``on_events``, only at the steps
    ``next_tick`` names, as the engine does.  Returns each step's
    (phase, stage, green_elapsed), the steps that consulted the source and
    the number of ticks."""
    timer = ControllerTimer(dt, initial)
    calls = []

    def source():
        calls.append(k)
        return proposals[(len(calls) - 1) % len(proposals)]

    log, rows, ticks, last, next_k = [], [], 0, -1, 0
    for k in range(n_steps):
        if on_events and k < next_k:
            continue
        phase = timer.tick(k, source, k - last - 1)
        ticks, last = ticks + 1, k
        if on_events:
            next_k = timer.next_tick(k)
            if not log or phase != log[-1][1]:
                log.append((k, phase, timer.stage, timer.green_steps))
        else:
            rows.append((phase, timer.stage, timer.green_elapsed))
    if on_events:
        rows = list(interval_rows(log, dt, n_steps))
    return rows, calls, ticks


@settings(max_examples=100, deadline=None)
@given(
    dt=st.sampled_from([0.2, 0.25, 0.5, 1.0]),
    initial=st.sampled_from(GREEN_PHASES),
    proposals=st.lists(st.sampled_from(GREEN_PHASES), min_size=1, max_size=12),
)
def test_event_ticks_match_every_step_ticks(dt, initial, proposals):
    # Proposals may repeat the phase shown, which starts no transition.
    n_steps = round(240.0 / dt)
    every_rows, every_calls, _ = _run_scripted(dt, initial, proposals, n_steps, False)
    event_rows, event_calls, ticks = _run_scripted(dt, initial, proposals, n_steps, True)
    assert event_calls == every_calls
    assert len(event_rows) == n_steps
    for k, (got, want) in enumerate(zip(event_rows, every_rows)):
        assert got == want and got[2].hex() == want[2].hex(), k
    assert ticks < n_steps // 2
