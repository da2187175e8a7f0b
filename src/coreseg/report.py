"""Metrics records and their files, learning curves and percent-of-full reporting.

A MetricsRecord holds one evaluation's counts and scores; evaluate writes
it as a key=value file and a one-row CSV, and report reads the CSV back.
This module loads no numpy, so reading and reporting records does not
either. A LearningCurve holds one MetricsRecord per annotation budget; the
largest budget is the full annotation set. Reporting derives
percent-of-full columns and detects the first budget whose score reaches
a fraction of the full-set score.

Threshold comparisons always use unrounded scores. Only display values
are rounded: scores to 4 decimals and percents to 2, half-up, applied to
the shortest decimal rendering of the float. All renderings are
deterministic, so identical inputs produce byte-identical text.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from typing import Mapping, NamedTuple, Sequence

from ._fields import parse_float, parse_ints
from .errors import CoresegError, InternalError, MetricsError, ReportError

METRIC_NAMES = ("f1", "accuracy", "pq", "precision", "recall")


@dataclass(frozen=True)
class MetricsRecord:
    """Matching counts and every derived score."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    sq: float
    rq: float
    pq: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, sum_iou: float) -> "MetricsRecord":
        """Derive the full record from counts and the matched IoU sum."""

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        f1 = ratio(2 * tp, 2 * tp + fp + fn)
        sq = ratio(sum_iou, tp)
        return cls(
            tp=tp,
            fp=fp,
            fn=fn,
            precision=ratio(tp, tp + fp),
            recall=ratio(tp, tp + fn),
            f1=f1,
            accuracy=ratio(tp, tp + fp + fn),
            sq=sq,
            rq=f1,
            pq=sq * f1,
        )


# The metrics file layout: a budget, MetricsRecord's fields in order, and
# the threshold. Reordering the fields reorders the file.
CSV_COLUMNS = ("budget", *(f.name for f in fields(MetricsRecord)), "iou_threshold")


def check_iou_threshold(value: float, error: type[CoresegError]) -> float:
    """Return value if it lies in [0.5, 1), where matching is unique, else raise error."""
    if not 0.5 <= value < 1.0:
        raise error(f"iou_threshold must lie in [0.5, 1), got {value}")
    return value


def metrics_kv_text(record: MetricsRecord, budget: int, iou_threshold: float) -> str:
    """Render one record as a flat key=value document."""
    values = _row_values(record, budget, iou_threshold)
    return "".join(f"{k}={v}\n" for k, v in zip(CSV_COLUMNS, values))


def metrics_csv_text(record: MetricsRecord, budget: int, iou_threshold: float) -> str:
    """Render one record as a CSV document with a header row."""
    values = _row_values(record, budget, iou_threshold)
    return ",".join(CSV_COLUMNS) + "\n" + ",".join(values) + "\n"


def _row_values(record: MetricsRecord, budget: int, iou_threshold: float) -> list[str]:
    # Counts render as ints, scores and the threshold with full repr.
    row = (budget, *astuple(record), iou_threshold)
    return [repr(v) if isinstance(v, float) else str(v) for v in row]


def parse_metrics_csv(text: str, source: str = "<metrics>") -> tuple[int, MetricsRecord, float]:
    """Parse a single-row metrics CSV back into (budget, record, threshold).

    Raises:
        MetricsError: On missing header, wrong columns, or a malformed row,
            among them a score that is not finite or lies outside [0, 1].
    """
    lines = [line for line in text.splitlines() if line]
    if len(lines) != 2 or lines[0] != ",".join(CSV_COLUMNS):
        raise MetricsError(f"{source}: expected a header row plus one metrics row")
    cells = lines[1].split(",")
    if len(cells) != len(CSV_COLUMNS):
        raise MetricsError(f"{source}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
    try:
        budget, tp, fp, fn = parse_ints(",".join(cells[:4]), MetricsError, "budget and counts")
        *scores, threshold = (
            parse_float(c, MetricsError, "score or threshold") for c in cells[4:]
        )
        for name, score in zip(CSV_COLUMNS[4:], scores):
            if not 0.0 <= score <= 1.0:
                raise MetricsError(f"{name} must lie in [0, 1], got {score}")
        check_iou_threshold(threshold, MetricsError)
    except MetricsError as exc:
        raise MetricsError(f"{source}: malformed metrics row: {exc}") from exc
    # The score columns follow the counts in MetricsRecord's field order.
    return budget, MetricsRecord(tp, fp, fn, *scores), threshold


class CurveRow(NamedTuple):
    budget: int
    fraction: float
    record: MetricsRecord


class PercentEntry(NamedTuple):
    budget: int
    score: float
    percent: float


@dataclass(frozen=True)
class LearningCurve:
    """Per-budget metric records, strictly increasing in budget.

    The last row, the largest budget, is the full annotation set.

    Attributes:
        rows: (budget, fraction, record) rows; fraction = budget / the
            last row's budget.
    """

    rows: tuple[CurveRow, ...]

    def full_record(self) -> MetricsRecord:
        return self.rows[-1].record


def round_half_up(x: float, places: int) -> float:
    """Round x half-up at the given decimal place.

    Applied to the shortest decimal rendering of x, so 92.655 rounds to
    92.66 even though its binary value sits a hair below the midpoint.
    """
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(float(x))).quantize(quantum, rounding=ROUND_HALF_UP))


def format_score(x: float) -> str:
    """Render a score with 4 decimals, half-up."""
    return f"{round_half_up(x, 4):.4f}"


def format_percent(x: float) -> str:
    """Render a percentage with 2 decimals, half-up."""
    return f"{round_half_up(x, 2):.2f}"


def build_curve(records: Mapping[int, MetricsRecord]) -> LearningCurve:
    """Assemble a LearningCurve from per-budget records.

    Args:
        records: Mapping from budget to its MetricsRecord; the largest
            budget is the full annotation set.

    Raises:
        ReportError: On an empty mapping, a negative budget, or a largest
            budget of 0.
    """
    if not records:
        raise ReportError("a learning curve needs at least one record")
    budgets = sorted(records)
    if budgets[0] < 0:
        raise ReportError(f"budgets must be non-negative, got {budgets[0]}")
    full_budget = budgets[-1]
    if full_budget <= 0:
        raise ReportError(f"full budget must be positive, got {full_budget}")
    rows = tuple(
        CurveRow(budget=b, fraction=b / full_budget, record=records[b]) for b in budgets
    )
    return LearningCurve(rows)


def _metric_value(record: MetricsRecord, metric: str) -> float:
    if metric not in METRIC_NAMES:
        raise ReportError(f"unknown metric {metric!r}, expected one of {METRIC_NAMES}")
    return float(getattr(record, metric))


def percent_of_full(curve: LearningCurve, metric: str) -> list[PercentEntry]:
    """Express one metric as a percentage of its full-set score.

    Args:
        curve: The learning curve.
        metric: One of f1, accuracy, pq, precision, recall.

    Returns:
        One PercentEntry per budget. The score field stays unrounded; the
        percent field is the display value, 100 * score / full_score
        rounded half-up to 2 decimals.

    Raises:
        ReportError: On an unknown metric or a zero full-set score.
    """
    full_score = _metric_value(curve.full_record(), metric)
    if full_score == 0.0:
        raise ReportError(f"full-set score for {metric!r} is zero; percents undefined")
    out = []
    for row in curve.rows:
        score = _metric_value(row.record, metric)
        out.append(
            PercentEntry(
                budget=row.budget,
                score=score,
                percent=round_half_up(100.0 * score / full_score, 2),
            )
        )
    return out


def check_surpass_fraction(value: float, error: type[CoresegError]) -> float:
    """Return value if it lies in (0, 1], else raise error."""
    if not 0.0 < value <= 1.0:
        raise error(f"surpass_fraction must lie in (0, 1], got {value}")
    return value


def first_surpass(curve: LearningCurve, metric: str, fraction: float) -> int:
    """Return the smallest budget whose score reaches fraction * full score.

    The comparison uses unrounded scores. The full-budget row always
    qualifies for fraction <= 1, so a budget is always returned.

    Args:
        curve: The learning curve.
        metric: One of f1, accuracy, pq, precision, recall.
        fraction: Target fraction of the full-set score, in (0, 1].

    Raises:
        ReportError: On an unknown metric or fraction outside (0, 1].
    """
    check_surpass_fraction(fraction, ReportError)
    full_score = _metric_value(curve.full_record(), metric)
    target = fraction * full_score
    for row in curve.rows:
        if _metric_value(row.record, metric) >= target:
            return row.budget
    raise InternalError("full-budget row failed to reach its own score")


def _render_aligned(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_curve_table(curve: LearningCurve) -> str:
    """Render the per-budget score and percent table as aligned text."""
    percents = {m: percent_of_full(curve, m) for m in METRIC_NAMES}
    header = ["budget", "fraction%"]
    for m in METRIC_NAMES:
        header.extend([m, f"{m}%"])
    rows = []
    for i, row in enumerate(curve.rows):
        cells = [str(row.budget), format_percent(100.0 * row.fraction)]
        for m in METRIC_NAMES:
            entry = percents[m][i]
            cells.extend([format_score(entry.score), format_percent(entry.percent)])
        rows.append(cells)
    return _render_aligned(header, rows)


def percent_csv(curve: LearningCurve) -> str:
    """Render the long-form percent table as CSV.

    Columns: metric, budget, score (unrounded repr), percent (2-decimal
    display string).
    """
    lines = ["metric,budget,score,percent"]
    for m in METRIC_NAMES:
        for entry in percent_of_full(curve, m):
            lines.append(f"{m},{entry.budget},{entry.score!r},{format_percent(entry.percent)}")
    return "\n".join(lines) + "\n"


def surpass_summary(curve: LearningCurve, fraction: float) -> str:
    """Render one first-surpass line per metric."""
    lines = [
        f"metric={m} fraction={fraction!r} budget={first_surpass(curve, m, fraction)}"
        for m in METRIC_NAMES
    ]
    return "\n".join(lines) + "\n"

