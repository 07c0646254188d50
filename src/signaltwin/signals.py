"""Nine-phase signal state machine with yellow/all-red interlocks.

Phases 0/2/4/6 are green-serving (NS through, EW through, EW left,
NS left), odd phases are the matching yellows, and phase 8 is all-red.
A phase change always runs green -> yellow (2 s) -> all-red (1 s) ->
new green, and the change decision is only consulted on the 5-second
cadence once the green has run strictly longer than the 5 s minimum.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .network import ALL_MOVEMENTS, Movement

GREEN_PHASES = (0, 2, 4, 6)
ALL_RED_PHASE = 8

YELLOW_DURATION = 2.0
ALL_RED_DURATION = 1.0
MIN_GREEN = 5.0
DECISION_PERIOD = 5.0

STAGE_GREEN = "green"
STAGE_YELLOW = "yellow"
STAGE_ALL_RED = "all_red"

# Phase -> its stage: even phases below ALL_RED_PHASE are green, odd ones
# the matching yellows.
PHASE_STAGES: tuple[str, ...] = (
    *(stage for _ in GREEN_PHASES for stage in (STAGE_GREEN, STAGE_YELLOW)),
    STAGE_ALL_RED,
)

# Movement pairs served by each green phase, in decision-chain order.
PHASE_MOVEMENTS: dict[int, tuple[Movement, Movement]] = {
    0: (Movement.NBT, Movement.SBT),
    2: (Movement.WBT, Movement.EBT),
    4: (Movement.WBL, Movement.EBL),
    6: (Movement.NBL, Movement.SBL),
}

# Int-coded aspects for the simulation hot loop; ``ASPECT_NAMES[code]``
# is the letter shown for a code.
A_GREEN, A_YELLOW, A_RED = 0, 1, 2
ASPECT_NAMES = ("G", "Y", "R")

# Movement -> position in ``ALL_MOVEMENTS``: the one index of every
# per-movement table, engine state and decision input.
MOVEMENT_INDEX: dict[Movement, int] = {m: i for i, m in enumerate(ALL_MOVEMENTS)}

# Movement index -> the green phase serving that movement.
GREEN_PHASE_FOR_MOVEMENT: tuple[int, ...] = tuple(
    next(phase for phase, pair in PHASE_MOVEMENTS.items() if m in pair) for m in ALL_MOVEMENTS
)

# Phase -> aspect row indexed by MOVEMENT_INDEX.  Protected: a green
# phase shows its pair green, the next (yellow) phase shows it yellow and
# all else is red.  Permissive: a left follows its parallel through.
ASPECTS_PROTECTED: tuple[tuple[int, ...], ...] = (
    *(
        tuple(aspect if m in pair else A_RED for m in ALL_MOVEMENTS)
        for pair in PHASE_MOVEMENTS.values()
        for aspect in (A_GREEN, A_YELLOW)
    ),
    (A_RED,) * len(ALL_MOVEMENTS),
)
ASPECTS_PERMISSIVE: tuple[tuple[int, ...], ...] = tuple(
    tuple(row[MOVEMENT_INDEX[m.through if m.is_left else m]] for m in ALL_MOVEMENTS)
    for row in ASPECTS_PROTECTED
)


def phase_for_movement(phase: int, movement: Movement) -> str:
    """State (G, Y or R) shown to a movement in the given phase."""
    if phase not in range(len(ASPECTS_PROTECTED)):
        raise ValueError(f"unknown phase {phase!r}")
    return ASPECT_NAMES[ASPECTS_PROTECTED[phase][MOVEMENT_INDEX[movement]]]


class ControllerTimer:
    """Signal timer for one intersection, or for several that run the same
    plan from the same start: the engine runs one for the subject and one
    that every fixed-time intersection shares.  It counts whole steps, so
    stage boundaries stay exact for any step that divides one second.

    It advances by events: ``tick`` may be called on every step or only at
    the ``due`` steps, since a tick before those would only count up.  A
    tick counts the steps since the last one first, so both ways display
    the same.  A phase change is requested only by the decision source
    that a tick consults, so ``log``, ``aspect_row`` and ``due`` always
    hold the displayed phase.  ``log`` holds one (first step, phase, green
    steps after that step's tick) entry per phase change (see
    ``interval_rows``), and ``aspect_row`` is the shown phase's row of
    ``aspects``, indexed by ``MOVEMENT_INDEX``.
    """

    __slots__ = (
        "dt", "_yellow_steps", "_all_red_steps", "_min_green_steps", "_decision_steps",
        "aspects", "current_phase", "pending_target", "_stage_steps", "_green_steps",
        "_last_tick", "due", "log", "aspect_row",
    )

    def __init__(
        self,
        dt: float = 1.0,
        initial_phase: int = 0,
        aspects: Sequence[tuple[int, ...]] = ASPECTS_PROTECTED,
    ) -> None:
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be a positive finite number, got {dt}")
        if initial_phase not in GREEN_PHASES:
            raise ValueError(f"initial phase must be green-serving, got {initial_phase}")
        self.dt = dt
        self._yellow_steps = _exact_steps(YELLOW_DURATION, dt, "yellow")
        self._all_red_steps = _exact_steps(ALL_RED_DURATION, dt, "all_red")
        self._min_green_steps = _exact_steps(MIN_GREEN, dt, "min_green")
        self._decision_steps = _exact_steps(DECISION_PERIOD, dt, "decision_period")
        self.aspects = aspects
        self.current_phase = initial_phase
        self.pending_target: int | None = None
        self._stage_steps = self._green_steps = 0
        self._last_tick = -1  # the step of the last tick
        self.due = 0  # the next step whose tick can change anything
        self.log: list[tuple[int, int, int]] = []
        self.aspect_row: tuple[int, ...] = aspects[initial_phase]

    @property
    def stage(self) -> str:
        return PHASE_STAGES[self.current_phase]

    @property
    def green_elapsed(self) -> float:
        return self._green_steps * self.dt

    def tick(self, step_index: int, decision_source: Callable[[], int] | None = None) -> int:
        """Advance to step ``step_index``, after the last tick's, and return
        the phase displayed for it.

        The steps since the last tick count up first; a step after ``due``
        is refused, since the tick at ``due`` may roll the stage over or
        consult the source.  ``decision_source`` is consulted only in a
        green stage, on the decision cadence, and once the green has
        displayed strictly longer than the minimum green time; a proposal
        of another green phase starts the transition to it through yellow
        and all-red, and one of a phase that is not green-serving is
        refused.  A phase change is logged and shown in ``aspect_row``, and
        ``due`` becomes the first step after this one whose tick can roll
        the stage over or consult the source.
        """
        skipped = step_index - self._last_tick - 1
        if skipped < 0:
            raise ValueError(f"step {step_index} is not after the last tick's, {self._last_tick}")
        if step_index > self.due:
            raise ValueError(f"step {step_index} is after the due step, {self.due}")
        self._last_tick = step_index
        phase = self.current_phase
        green = phase in GREEN_PHASES
        self._stage_steps += skipped
        if green:
            self._green_steps += skipped
        elif phase == ALL_RED_PHASE:  # stage rollovers that fall due exactly now
            if self._stage_steps >= self._all_red_steps:
                assert self.pending_target is not None
                phase = self.current_phase = self.pending_target
                green = True
                self.pending_target = None
                self._stage_steps = self._green_steps = 0
        elif self._stage_steps >= self._yellow_steps:
            phase = self.current_phase = ALL_RED_PHASE
            self._stage_steps = 0

        if (
            green
            and decision_source is not None
            and step_index % self._decision_steps == 0
            and self._green_steps > self._min_green_steps
        ):
            proposed = decision_source()
            if proposed != phase:
                if proposed not in GREEN_PHASES:
                    raise ValueError(
                        f"proposed phase must be one of {GREEN_PHASES}, got {proposed}"
                    )
                self.pending_target = proposed
                phase = self.current_phase = phase + 1  # the matching yellow phase
                self._stage_steps = 0
                green = False

        self._stage_steps += 1
        if green:
            self._green_steps += 1
            # The green steps at the start of step step_index + m are
            # _green_steps + m - 1; the source wants more than the minimum.
            m = max(1, self._min_green_steps + 2 - self._green_steps)
            self.due = -(-(step_index + m) // self._decision_steps) * self._decision_steps
        else:
            length = self._all_red_steps if phase == ALL_RED_PHASE else self._yellow_steps
            self.due = step_index + 1 + length - self._stage_steps
        log = self.log
        if not log or phase != log[-1][1]:
            log.append((step_index, phase, self._green_steps))
            self.aspect_row = self.aspects[phase]
        return phase


def interval_rows(
    log: Sequence[tuple[int, int, int]], dt: float, stop: int
) -> Iterator[tuple[int, str, float]]:
    """The (phase, stage, green_elapsed) of each step before ``stop`` of a
    timer whose display is logged as intervals, as ``ControllerTimer.log``.

    Each ``log`` entry is (first step, phase, green steps after that step's
    tick), appended whenever the displayed phase changes; the first
    entry's step is 0 and ``stop`` is after the last entry's.  A green
    counts one green step per step, a transition holds the green steps of
    the green before it, and ``green_elapsed`` is a whole number of steps
    times ``dt``, as ``ControllerTimer.green_elapsed`` is.
    """
    ends = [entry[0] for entry in log[1:]]
    ends.append(stop)
    for (first, phase, green), end in zip(log, ends):
        stage = PHASE_STAGES[phase]
        if stage == STAGE_GREEN:
            for k in range(first, end):
                yield phase, stage, (green + k - first) * dt
        else:
            row = (phase, stage, green * dt)
            for _ in range(first, end):
                yield row


def _exact_steps(duration: float, dt: float, name: str) -> int:
    quotient = duration / dt
    if not math.isfinite(quotient):
        raise ValueError(f"{name} ({duration}s) over dt ({dt}s) is not a finite number of steps")
    steps = round(quotient)
    # Past 2**53 steps, k * dt and round(duration / dt) are no longer exact.
    if steps > 2**53:
        raise ValueError(f"{name} ({duration}s) over dt ({dt}s) is more than 2**53 steps")
    if steps <= 0 or abs(steps * dt - duration) > 1e-9:
        raise ValueError(f"{name} ({duration}s) must be a positive multiple of dt ({dt}s)")
    return steps
