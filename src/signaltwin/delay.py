"""Stopped-delay bookkeeping per vehicle and per approach.

A vehicle is counted as stopped while its speed is strictly below
0.1 m/s.  The current waiting spell resets as soon as the vehicle moves
again; the accumulated total never resets.  These ledgers are the raw
input for the delay-based signal controllers and the stopped-delay
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# Speed below which a vehicle counts as stopped (strict comparison).
STOP_SPEED_THRESHOLD = 0.1


class LedgerCorruptionError(RuntimeError):
    """A ledger invariant was violated (accumulated fell below a snapshot)."""


@dataclass(slots=True)
class DelayLedger:
    """Per-vehicle stopped-delay state.

    waiting            current below-threshold spell, seconds
    accumulated        lifetime total stopped time, seconds (never resets)
    entry_accumulated  snapshot of ``accumulated`` taken when the vehicle
                       entered its current approach
    carried_over       stopped delay incurred on the immediately previous
                       approach (0 for vehicles fresh from the periphery)
    """

    waiting: float = 0.0
    accumulated: float = 0.0
    entry_accumulated: float = 0.0
    carried_over: float = 0.0


@dataclass(frozen=True)
class ApproachDelaySnapshot:
    """Vehicle delays observed on one approach at one instant."""

    approach: str
    vehicle_delays: tuple[float, ...]
    average: float


def update_waiting(ledger: DelayLedger, speed: float, dt: float) -> DelayLedger:
    """Advance the ledger by one step at the given speed.

    Mutates ``ledger`` in place and returns it.  A step below the stop
    threshold adds ``dt`` to both the current spell and the lifetime
    total; any faster step clears the current spell only.
    """
    if speed < STOP_SPEED_THRESHOLD:
        ledger.waiting += dt
        ledger.accumulated += dt
    else:
        ledger.waiting = 0.0
    return ledger


def vehicle_delay_dt1(ledger: DelayLedger) -> float:
    """Stopped delay incurred on the current approach only."""
    d = ledger.accumulated - ledger.entry_accumulated
    if d < 0.0:
        raise LedgerCorruptionError(
            f"accumulated ({ledger.accumulated}) below entry snapshot "
            f"({ledger.entry_accumulated})"
        )
    return d


def vehicle_delay_dt2(ledger: DelayLedger) -> float:
    """Current-approach stopped delay plus the carried-over share."""
    return vehicle_delay_dt1(ledger) + ledger.carried_over


def on_approach_transition(ledger: DelayLedger) -> DelayLedger:
    """Roll the ledger over as the vehicle crosses onto its next approach.

    The delay incurred on the approach just left becomes the carried-over
    share, and the entry snapshot moves up to the current total.
    """
    ledger.carried_over = vehicle_delay_dt1(ledger)
    ledger.entry_accumulated = ledger.accumulated
    return ledger


def average_approach_delay(
    approach: str,
    ledgers: Iterable[DelayLedger],
    variant: str = "dt1",
) -> ApproachDelaySnapshot:
    """Average per-vehicle delay over one approach; 0 when empty.

    ``variant`` selects the per-vehicle delay definition: "dt1" for the
    current-approach delay, "dt2" to add the carried-over share.  The
    engine's dt1/dt2 decision values equal these averages bit for bit:
    it takes each the same way, a list of delays, then sum over length.
    """
    if variant == "dt1":
        delays = tuple(map(vehicle_delay_dt1, ledgers))
    elif variant == "dt2":
        delays = tuple(map(vehicle_delay_dt2, ledgers))
    else:
        raise ValueError(f"unknown delay variant: {variant!r}")
    average = sum(delays) / len(delays) if delays else 0.0
    return ApproachDelaySnapshot(approach=approach, vehicle_delays=delays, average=average)


def segment_delay(t_in: float, t_out: float, length: float, v_ff: float) -> float:
    """Travel time over a segment minus its free-flow time, floored at 0.

    Used as the control-delay proxy for vehicles clearing an approach.
    """
    if t_out < t_in:
        raise ValueError(f"t_out ({t_out}) earlier than t_in ({t_in})")
    if length <= 0.0:
        raise ValueError("segment length must be positive")
    if v_ff <= 0.0:
        raise ValueError("free-flow speed must be positive")
    return max(0.0, (t_out - t_in) - length / v_ff)
