"""Evaluation layer: LOS grading, stopped-delay summaries and comparisons.

Control delay is approximated by segment delay (travel time over an
approach minus its free-flow time) for every vehicle clearing the
subject intersection inside the measured window.  The letter grade
follows the standard signalized-intersection thresholds, with boundary
values belonging to the lower grade.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .network import ALL_MOVEMENTS, Network, turn_of
from .delay import segment_delay
from .traffic import SimulationResult

# Upper control-delay bound (s/veh) per grade; above the last bound is F.
LOS_BOUNDS: tuple[tuple[float, str], ...] = (
    (10.0, "A"),
    (20.0, "B"),
    (35.0, "C"),
    (55.0, "D"),
    (80.0, "E"),
)

DEFAULT_BIN_WIDTH = 10.0


@dataclass(frozen=True)
class LosGrade:
    grade: str
    control_delay: float


@dataclass(frozen=True)
class DelayHistogram:
    """Right-open bins [k*w, (k+1)*w) of per-vehicle stopped delays."""

    bin_width: float
    counts: tuple[int, ...]
    movement: str = ""
    algorithm: str = ""

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass
class ComparisonReport:
    """Cross-algorithm metrics for runs sharing network, demand and seed."""

    algorithms: list[str]
    mean_control_delay: dict[str, float]
    los: dict[str, str]
    aasd: dict[str, dict[str, float]]
    dsd: dict[str, dict[str, DelayHistogram]]
    reduction_pct: dict[str, float | None]
    bin_width: float = DEFAULT_BIN_WIDTH
    scenario_id: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        dsd = {
            algo: {m: list(h.counts) for m, h in by_movement.items()}
            for algo, by_movement in self.dsd.items()
        }
        return {**asdict(self), "dsd": dsd}


def los_from_control_delay(d: float) -> LosGrade:
    """Letter grade for an average control delay in seconds per vehicle."""
    if d < 0.0 or not math.isfinite(d):
        raise ValueError(f"control delay must be finite and >= 0, got {d}")
    for bound, grade in LOS_BOUNDS:
        if d <= bound:
            return LosGrade(grade, d)
    return LosGrade("F", d)


def aasd(delays: Sequence[float]) -> float:
    """Mean stopped delay per vehicle for one movement; 0 with no traversals."""
    return sum(delays) / len(delays) if delays else 0.0


def dsd_histogram(
    delays: Sequence[float],
    bin_width: float = DEFAULT_BIN_WIDTH,
    movement: str = "",
    algorithm: str = "",
) -> DelayHistogram:
    """Frequency of per-vehicle stopped delays in fixed-width bins."""
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    if not delays:
        return DelayHistogram(bin_width, (), movement, algorithm)
    counts = [0] * (int(max(delays) // bin_width) + 1)
    for d in delays:
        counts[int(d // bin_width)] += 1
    return DelayHistogram(bin_width, tuple(counts), movement, algorithm)


def sample_skewness(values: Sequence[float]) -> float:
    """Third standardized moment; 0 for degenerate samples."""
    n = len(values)
    if n < 3:
        return 0.0
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    if m2 <= 0.0:
        return 0.0
    m3 = sum((v - mean) ** 3 for v in values) / n
    return m3 / m2**1.5


def control_delay_summary(control_delays: Sequence[float]) -> tuple[float, LosGrade]:
    """Mean control delay over subject traversals plus its letter grade."""
    mean = sum(control_delays) / len(control_delays) if control_delays else 0.0
    return mean, los_from_control_delay(mean)


def reduction_vs_baseline(base: float, alt: float) -> float | None:
    """Percent reduction of ``alt`` relative to ``base``; None when base <= 0."""
    if base <= 0.0:
        return None
    return (base - alt) / base * 100.0


def compare(
    results: Mapping[str, SimulationResult],
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> ComparisonReport:
    """Side-by-side report of every algorithm against the baseline run."""
    if "baseline" not in results:
        raise ValueError("comparison requires a baseline result")
    algorithms = sorted(results, key=lambda a: (a != "baseline", a))
    mean_delay: dict[str, float] = {}
    los: dict[str, str] = {}
    per_movement: dict[str, dict[str, float]] = {}
    dsd: dict[str, dict[str, DelayHistogram]] = {}
    for algo in algorithms:
        res = results[algo]
        mean, grade = control_delay_summary(res.control_delay_values())
        mean_delay[algo] = mean
        los[algo] = grade.grade
        per_movement[algo] = {
            m.value: aasd(res.movement_delay_values(m.value)) for m in ALL_MOVEMENTS
        }
        dsd[algo] = {
            m.value: dsd_histogram(
                res.movement_delay_values(m.value), bin_width, m.value, algo
            )
            for m in ALL_MOVEMENTS
        }
    base = mean_delay["baseline"]
    reductions = {
        algo: (0.0 if algo == "baseline" else reduction_vs_baseline(base, mean_delay[algo]))
        for algo in algorithms
    }
    first = next(iter(results.values()))
    return ComparisonReport(
        algorithms=algorithms,
        mean_control_delay=mean_delay,
        los=los,
        aasd=per_movement,
        dsd=dsd,
        reduction_pct=reductions,
        bin_width=bin_width,
        scenario_id=first.scenario_id,
        seed=first.seed,
    )


# -- artifact writers ------------------------------------------------------

COMPARISON_COLUMNS = (
    ["algorithm", "mean_control_delay", "los", "reduction_vs_baseline_pct"]
    + [f"aasd_{m.value}" for m in ALL_MOVEMENTS]
)


def write_comparison_csv(report: ComparisonReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_COLUMNS)
        for algo in report.algorithms:
            reduction = report.reduction_pct[algo]
            writer.writerow(
                [
                    algo,
                    repr(report.mean_control_delay[algo]),
                    report.los[algo],
                    "" if reduction is None else repr(reduction),
                ]
                + [repr(report.aasd[algo][m.value]) for m in ALL_MOVEMENTS]
            )


def write_dsd_csvs(report: ComparisonReport, out_dir: str | Path) -> list[Path]:
    """One histogram file per movement: bin bounds plus per-algorithm counts."""
    out = Path(out_dir)
    written = []
    for movement in ALL_MOVEMENTS:
        hists = {a: report.dsd[a][movement.value] for a in report.algorithms}
        n_bins = max((len(h.counts) for h in hists.values()), default=0)
        path = out / f"dsd_{movement.value}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_start", "bin_end"] + [f"count_{a}" for a in report.algorithms])
            for b in range(n_bins):
                row = [repr(b * report.bin_width), repr((b + 1) * report.bin_width)]
                for algo in report.algorithms:
                    counts = hists[algo].counts
                    row.append(str(counts[b] if b < len(counts) else 0))
                writer.writerow(row)
        written.append(path)
    return written


def write_comparison_json(report: ComparisonReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))


# -- recomputation from raw trajectory logs ---------------------------------


def _shown(field) -> str:
    """``repr`` of a row field, a bytes field as the text it holds."""
    if isinstance(field, bytes):
        field = field.decode(errors="backslashreplace")
    return repr(field)


class TrajectoryRowError(ValueError):
    """A trajectory row that recomputation cannot use; ``row`` is that row."""

    def __init__(self, row: Sequence, message: str) -> None:
        super().__init__(message)
        self.row = row


def _finite(row: Sequence, index: int, name: str) -> float:
    try:
        value = float(row[index])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise TrajectoryRowError(row, f"{name} {_shown(row[index])} is not a finite number")
    return value


def recompute_from_trajectory(
    rows: Iterable[Sequence],
    network: Network,
    window: tuple[float, float],
    dt: float,
) -> tuple[list[float], dict[str, list[float]]]:
    """Re-derive subject control delays and per-movement stopped delays
    from raw trajectory rows (t, vehicle, segment, position, speed,
    waiting, accumulated).

    ``rows`` is any iterable in file order: every row of a step before any
    row of a later step.  The numeric fields may be floats or their text,
    as ``str`` or UTF-8 ``bytes``; ``t`` and ``accumulated`` are converted
    where used, the other numeric fields are never read.  The ids may be
    ``str`` or UTF-8 ``bytes``, as long as every row uses the same type:
    a vehicle is told apart by its id as given, and a segment is looked
    up by either.  One pass keeps only each vehicle's open visit, so memory
    is bounded by the vehicles seen, not by the rows.  A non-finite ``t``
    or used ``accumulated``, a ``t`` earlier than the row before, or an
    unknown segment raises ``TrajectoryRowError``, whose message shows a
    bytes field as text.

    A vehicle leaves a segment one step after its last logged row there;
    the stopped delay on a visit is the accumulated-waiting difference
    between its last row and the last row of the previous visit.  Subject
    approaches always continue onto another segment, so a completed
    traversal is detectable by the following visit; exact parity with the
    engine therefore needs a cool-down of at least one step.  Traversals
    are returned per vehicle in sorted vehicle-id order (UTF-8 bytes sort
    in the order of the text they hold).
    """
    subject = network.subject_intersection
    # Segments by id, as text and as UTF-8 bytes.
    segments = {**network.segments, **{k.encode(): s for k, s in network.segments.items()}}
    lo, hi = window
    # vehicle -> [segment id, segment, t_in, last row, accumulated before the visit]
    open_visits: dict[str | bytes, list] = {}
    # vehicle -> closed subject traversals (control delay, movement, stopped delay)
    traversals: dict[str | bytes, list[tuple[float, str, float]]] = {}
    t_raw = None
    t = -math.inf
    for row in rows:
        if row[0] != t_raw:
            t_now = _finite(row, 0, "t")
            if t_now < t:
                raise TrajectoryRowError(
                    row, f"t {_shown(row[0])} is earlier than t {_shown(t_raw)} of the row before"
                )
            t_raw, t = row[0], t_now
        vid, seg_id = row[1], row[2]
        visit = open_visits.get(vid)
        if visit is not None and visit[0] == seg_id:
            visit[3] = row
            continue
        seg = segments.get(seg_id)
        if seg is None:
            raise TrajectoryRowError(row, f"unknown segment_id {_shown(seg_id)}")
        acc_last = 0.0
        if visit is not None:
            _, prev, t_in, last, acc_before = visit
            acc_last = _finite(last, 6, "accumulated_waiting")
            t_out = float(last[0]) + dt
            if prev.to_node == subject and lo <= t_out <= hi:
                turn = turn_of(prev.movement.direction, seg.movement.direction)
                movement = prev.left_movement if turn == "left" else prev.movement
                traversals.setdefault(vid, []).append((
                    segment_delay(t_in, t_out, prev.length, prev.free_flow_speed),
                    movement.value,
                    acc_last - acc_before,
                ))
        open_visits[vid] = [seg_id, seg, t, row, acc_last]

    control: list[float] = []
    movement_delays: dict[str, list[float]] = {m.value: [] for m in ALL_MOVEMENTS}
    for vid in sorted(traversals):
        for delay, movement, stopped in traversals[vid]:
            control.append(delay)
            movement_delays[movement].append(stopped)
    return control, movement_delays
