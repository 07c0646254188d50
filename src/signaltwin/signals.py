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


class PhaseChangeRejected(RuntimeError):
    """A phase change was requested while a transition was in progress."""


class ControllerTimer:
    """Signal timer for one intersection, or for several that run the same
    plan from the same start: the engine runs one for the subject and one
    that every fixed-time intersection shares.

    Internally counts whole simulation steps so stage boundaries stay
    exact for any step length that divides one second cleanly.

    Call ``tick`` once per simulation step, or only at the steps that
    ``next_tick`` names: on every step before those a tick would only
    count up, so the next tick counts the steps it is passed as
    ``skipped`` first.  The engine does the latter for both of its timers.
    """

    def __init__(self, dt: float = 1.0, initial_phase: int = 0) -> None:
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be a positive finite number, got {dt}")
        if initial_phase not in GREEN_PHASES:
            raise ValueError(f"initial phase must be green-serving, got {initial_phase}")
        self.dt = dt
        self._yellow_steps = _exact_steps(YELLOW_DURATION, dt, "yellow")
        self._all_red_steps = _exact_steps(ALL_RED_DURATION, dt, "all_red")
        self._min_green_steps = _exact_steps(MIN_GREEN, dt, "min_green")
        self._decision_steps = _exact_steps(DECISION_PERIOD, dt, "decision_period")
        self.current_phase = initial_phase
        self.stage = STAGE_GREEN
        self.pending_target: int | None = None
        self._stage_steps = 0
        self._green_steps = 0

    @property
    def green_elapsed(self) -> float:
        return self._green_steps * self.dt

    @property
    def green_steps(self) -> int:
        """Steps the current green has displayed; in a transition, the
        steps the green before it displayed."""
        return self._green_steps

    def request_phase(self, proposed: int) -> "ControllerTimer":
        """Begin a transition toward ``proposed``; no-op if already there."""
        if proposed not in GREEN_PHASES:
            raise ValueError(f"proposed phase must be one of {GREEN_PHASES}, got {proposed}")
        if self.stage != STAGE_GREEN:
            raise PhaseChangeRejected(
                f"phase change to {proposed} rejected during {self.stage} stage"
            )
        if proposed == self.current_phase:
            return self
        self.pending_target = proposed
        self.current_phase += 1  # the matching yellow phase
        self.stage = STAGE_YELLOW
        self._stage_steps = 0
        return self

    def tick(
        self,
        step_index: int,
        decision_source: Callable[[], int] | None = None,
        skipped: int = 0,
    ) -> int:
        """Advance one step and return the phase displayed for it.

        ``decision_source`` is consulted only in a green stage, on the
        decision cadence, and once the green has displayed strictly
        longer than the minimum green time.  ``skipped`` is the number of
        steps since the last tick that were not ticked; each counts up as
        a tick before ``next_tick`` would have.
        """
        if skipped:
            self._stage_steps += skipped
            if self.stage == STAGE_GREEN:
                self._green_steps += skipped
        # Stage rollovers that fall due exactly now.
        if self.stage == STAGE_YELLOW and self._stage_steps >= self._yellow_steps:
            self.stage = STAGE_ALL_RED
            self.current_phase = ALL_RED_PHASE
            self._stage_steps = 0
        elif self.stage == STAGE_ALL_RED and self._stage_steps >= self._all_red_steps:
            assert self.pending_target is not None
            self.stage = STAGE_GREEN
            self.current_phase = self.pending_target
            self.pending_target = None
            self._stage_steps = 0
            self._green_steps = 0

        if (
            decision_source is not None
            and self.stage == STAGE_GREEN
            and step_index % self._decision_steps == 0
            and self._green_steps > self._min_green_steps
        ):
            proposed = decision_source()
            if proposed != self.current_phase:
                self.request_phase(proposed)

        phase = self.current_phase
        self._stage_steps += 1
        if self.stage == STAGE_GREEN:
            self._green_steps += 1
        return phase

    def next_tick(self, step_index: int) -> int:
        """The first step after ``step_index``, the step just ticked, whose
        tick can roll the stage over or consult the decision source.

        A transition rolls over once its stage has displayed its length.  A
        green consults the source on the first decision step at which it
        has displayed longer than the minimum: the green steps at the
        start of step ``step_index + m`` are ``green_steps + m - 1``.
        """
        if self.stage == STAGE_YELLOW:
            return step_index + 1 + self._yellow_steps - self._stage_steps
        if self.stage == STAGE_ALL_RED:
            return step_index + 1 + self._all_red_steps - self._stage_steps
        eligible = max(step_index + 1, step_index + 2 + self._min_green_steps - self._green_steps)
        return -(-eligible // self._decision_steps) * self._decision_steps


def interval_rows(
    log: Sequence[tuple[int, int, str, int]], dt: float, stop: int
) -> Iterator[tuple[int, str, float]]:
    """The (phase, stage, green_elapsed) of each step before ``stop`` of a
    timer whose display is logged as intervals.

    Each ``log`` entry is (first step, phase, stage, green steps after that
    step's tick), appended whenever the displayed phase changes; the first
    entry's step is 0 and ``stop`` is after the last entry's.  A green
    counts one green step per step, a transition holds the green steps of
    the green before it, and ``green_elapsed`` is a whole number of steps
    times ``dt``, as ``ControllerTimer.green_elapsed`` is.
    """
    ends = [entry[0] for entry in log[1:]]
    ends.append(stop)
    for (first, phase, stage, green), end in zip(log, ends):
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
