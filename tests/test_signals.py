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
    # Only a tick's decision source proposes a phase.  It is asked in a
    # green stage only, so a source that proposes another green whenever
    # asked is never asked in a yellow or an all-red; and a proposal of a
    # phase that is not green-serving is refused.
    timer = ControllerTimer(dt=1.0)
    asked = []

    def next_green():
        asked.append(timer.stage)
        return (timer.current_phase + 2) % 8

    displayed = [timer.tick(k, next_green) for k in range(120)]
    assert asked == ["green"] * 11  # at steps 10, 20, ..., 110
    assert {1, 3, 5, 7, 8} <= set(displayed)

    timer = ControllerTimer(dt=1.0)
    with pytest.raises(ValueError, match=r"proposed phase must be one of .*, got 3"):
        for k in range(11):
            timer.tick(k, lambda: 3)
    assert k == 10


def test_back_to_back_requests_enumeration():
    # Proposals on the steps after a change starts must not alter the
    # sequence; compare against the single-request trace over 20 steps.
    single = ControllerTimer(dt=1.0)
    expected = run_timer(single, 20, {10: 6})

    timer = ControllerTimer(dt=1.0)
    asked = []

    def source():
        asked.append(k)
        return 6 if k == 10 else 2

    displayed = []
    for k in range(20):
        displayed.append(timer.tick(k, source))
    assert displayed == expected
    assert asked == [10]


def test_a_phase_change_is_logged_at_the_tick_that_requests_it():
    # Only a tick's source requests a change, so the log, aspect row and due
    # step never go stale: a timer ticked at its due steps logs the yellow
    # as one ticked on every step does.  A tick after the due step, which
    # would skip its decision, is refused and changes nothing.
    every, events = ControllerTimer(dt=1.0), ControllerTimer(dt=1.0)
    assert not hasattr(events, "request_phase")
    for k in range(15):
        every.tick(k, lambda: 2)
    events.tick(0, lambda: 2)
    with pytest.raises(ValueError, match=r"^step 11 is after the due step, 10$"):
        events.tick(11, lambda: 2)
    while events.due < 15:
        events.tick(events.due, lambda: 2)
    assert events.log == every.log == [(0, 0, 1), (10, 1, 10), (12, 8, 10), (13, 2, 1)]
    assert events.aspect_row is every.aspect_row is ASPECTS_PROTECTED[2]


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
    in turn, ticking every step or, if ``on_events``, only at its ``due``
    steps, as the engine does.  Returns the timer, the (phase, stage,
    green_elapsed) after each tick and the steps that consulted the source."""
    timer = ControllerTimer(dt, initial)
    calls, rows = [], []

    def source():
        calls.append(k)
        return proposals[(len(calls) - 1) % len(proposals)]

    for k in range(n_steps):
        if on_events and k < timer.due:
            continue
        rows.append((timer.tick(k, source), timer.stage, timer.green_elapsed))
    return timer, rows, calls


@settings(max_examples=100, deadline=None)
@given(
    dt=st.sampled_from([0.2, 0.25, 0.5, 1.0]),
    initial=st.sampled_from(GREEN_PHASES),
    proposals=st.lists(st.sampled_from(GREEN_PHASES), min_size=1, max_size=12),
)
def test_event_ticks_match_every_step_ticks(dt, initial, proposals):
    # Proposals may repeat the phase shown, which starts no transition.
    n_steps = round(240.0 / dt)
    every, every_rows, every_calls = _run_scripted(dt, initial, proposals, n_steps, False)
    events, event_rows, event_calls = _run_scripted(dt, initial, proposals, n_steps, True)
    assert event_calls == every_calls
    assert events.log == every.log
    rows = list(interval_rows(events.log, dt, n_steps))
    assert len(rows) == n_steps
    for k, (got, want) in enumerate(zip(rows, every_rows)):
        assert got == want and got[2].hex() == want[2].hex(), k
    assert len(event_rows) < n_steps // 2


def _state(timer):
    return timer.current_phase, timer.pending_target, timer.green_elapsed, timer.due


def test_a_later_tick_counts_the_steps_between():
    # A timer ticked only at some steps ends each of them as one ticked on
    # every step does: in a green, in the yellow a decision starts, at the
    # all-red the yellow rolls over to, and in the next green.
    def source():
        return 2

    every, gaps = ControllerTimer(1.0), ControllerTimer(1.0)
    for k in range(21):
        phase = every.tick(k, source)
        if k in (0, 7, 10, 12, 13, 16, 20):
            assert gaps.tick(k, source) == phase, k
            assert _state(gaps) == _state(every), k
    assert _state(gaps) == (2, None, 8.0, 25)
    assert gaps.log == every.log == [(0, 0, 1), (10, 1, 10), (12, 8, 10), (13, 2, 1)]
    with pytest.raises(ValueError, match="not after the last tick"):
        gaps.tick(20)


def test_log_holds_one_entry_per_phase_change():
    # Proposals that repeat the green shown change nothing and add no entry.
    timer = ControllerTimer(dt=0.5)
    proposals = {20: 0, 30: 6, 60: 6, 80: 2, 100: 4, 120: 4}
    expected, last = [], None
    for k in range(150):
        phase = timer.tick(k, lambda k=k: proposals.get(k, timer.current_phase))
        if phase != last:
            expected.append((k, phase, round(timer.green_elapsed / 0.5)))
            last = phase
    assert timer.log == expected
    assert [phase for _, phase, _ in expected] == [0, 1, 8, 6, 7, 8, 2, 3, 8, 4]


@pytest.mark.parametrize("aspects", [ASPECTS_PROTECTED, ASPECTS_PERMISSIVE],
                         ids=["protected", "permissive"])
def test_stage_and_aspect_row_follow_the_phase(aspects):
    timer = ControllerTimer(dt=1.0, aspects=aspects)
    assert timer.aspect_row is aspects[0]
    stages = []
    for k in range(40):
        phase = timer.tick(k, lambda k=k: {10: 6, 20: 2}.get(k, timer.current_phase))
        assert timer.aspect_row is aspects[phase], k
        stages.append(timer.stage)
    assert stages == (
        ["green"] * 10 + ["yellow"] * 2 + ["all_red"] + ["green"] * 7
        + ["yellow"] * 2 + ["all_red"] + ["green"] * 17
    )
    with pytest.raises(AttributeError):
        timer.stage = "green"
