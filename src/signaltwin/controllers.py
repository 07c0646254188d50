"""Phase-choice algorithms: density baseline, dt1 and dt2.

All three share the same selection rule: take the maximum over the
eight per-movement observation values and walk a fixed if/else chain of
movement pairs (NS through, EW through, EW left, NS left); the first
pair containing a movement that attains the maximum wins and its green
phase is proposed.  The algorithms differ only in what the observations
are: vehicles per lane per mile for the baseline, average stopped delay
on the approach for dt1, and the same plus the delay carried over from
the previous approach for dt2.

The eight values are a tuple in ``ALL_MOVEMENTS`` order, the index
``signals.MOVEMENT_INDEX`` that the engine's per-movement state also uses.

So there is one rule, ``chain_winner``.  The observations are computed
by the engine (``Simulation._decision_values``): they read its lanes and
delay ledgers, so a separate observation layer here would still need all
of the engine's state.  The engine applies ``chain_winner`` to them
directly; ``decide`` is the checked public form of the same rule, and
``DECIDE_BY_ALGORITHM`` keeps one key per token for callers that look
the rule up by algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .network import ALL_MOVEMENTS, METERS_PER_MILE, Movement
from .signals import GREEN_PHASE_FOR_MOVEMENT, MOVEMENT_INDEX, PHASE_MOVEMENTS

# Registration order; also the tie-break order when scores are equal.
ALGORITHMS = ("baseline", "dt1", "dt2")

# Every movement index, in decision-chain order.
_CHAIN_ORDER = tuple(MOVEMENT_INDEX[m] for pair in PHASE_MOVEMENTS.values() for m in pair)


@dataclass(frozen=True)
class DecisionInput:
    """Per-movement observations at one intersection and instant; ``values``
    is in ``ALL_MOVEMENTS`` order: EBT, WBT, NBT, SBT, EBL, WBL, NBL, SBL."""

    values: tuple[float, ...]
    intersection: str = ""
    time: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple) or len(self.values) != len(ALL_MOVEMENTS):
            raise ValueError(f"decision input must be a tuple of 8 values, got {self.values!r}")
        for movement, value in zip(ALL_MOVEMENTS, self.values):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(
                    f"decision value for {movement.value} must be finite and >= 0, got {value}"
                )


@dataclass(frozen=True)
class Decision:
    """Outcome of one phase-choice evaluation."""

    proposed_phase: int
    winning_movement: Movement
    winning_value: float


def approach_density(vehicle_count: int, lane_count: int, lane_length_miles: float) -> float:
    """Vehicles per lane per mile on one approach."""
    if lane_count < 1:
        raise ValueError(f"lane_count must be >= 1, got {lane_count}")
    if lane_length_miles <= 0.0:
        raise ValueError(f"lane_length_miles must be positive, got {lane_length_miles}")
    return vehicle_count / (lane_count * lane_length_miles)


def meters_to_miles(length_m: float) -> float:
    return length_m / METERS_PER_MILE


def chain_winner(values: Sequence[float]) -> int:
    """The movement index with the largest of the eight ``values``; ties go
    to the first movement in ``PHASE_MOVEMENTS`` chain order.  No value is
    NaN (``DecisionInput`` refuses one)."""
    best = max(values)
    for index in _CHAIN_ORDER:
        if values[index] == best:
            return index
    raise ValueError(f"no largest decision value in {values!r}")


def decide(decision_input: DecisionInput) -> Decision:
    """Propose the green phase serving the movement with the largest value.

    Ties go to the first movement in ``PHASE_MOVEMENTS`` chain order.
    """
    values = decision_input.values
    index = chain_winner(values)
    return Decision(GREEN_PHASE_FOR_MOVEMENT[index], ALL_MOVEMENTS[index], values[index])


# The algorithms share one rule; their public names stay for callers.
baseline_decide = dt1_decide = dt2_decide = decide

DECIDE_BY_ALGORITHM = dict.fromkeys(ALGORITHMS, decide)


def validate_algorithm(token: str) -> str:
    if token not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {token!r}; valid tokens: {', '.join(ALGORITHMS)}"
        )
    return token
