"""Recall-at-threshold tables and per-stage timing reports.

Recall at a combined threshold (t meters, r degrees) is the fraction of
queries whose translation error <= t AND rotation error <= r (errors exactly
at a threshold count as success).  The translation-only family ignores
rotation.  Report columns follow the fixed ladder order, loosest first:
(5m,20deg), (1m,10deg), (0.5m,5deg), (0.25m,2deg), (5m), (1m), (0.5m), (0.25m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from pointloc.geometry import Pose, rotation_error, translation_error
from pointloc.pipeline import TIMING_STAGES, StageTimings

THRESHOLDS = ((0.25, 2.0), (0.5, 5.0), (1.0, 10.0), (5.0, 20.0))

# Table column order: combined loosest-to-tightest, then translation-only
CSV_HEADER = "configuration,5m_20deg,1m_10deg,0.5m_5deg,0.25m_2deg,5m,1m,0.5m,0.25m,queries"
MARKDOWN_HEADER = (
    "| configuration | (5m,20°) | (1m,10°) | (0.5m,5°) | (0.25m,2°) "
    "| (5m) | (1m) | (0.5m) | (0.25m) | queries |"
)

class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class RecallRow:
    """Recall values for one configuration: combined[i] pairs with
    translation_only[i] at THRESHOLDS[i]."""

    combined: tuple[float, ...]
    translation_only: tuple[float, ...]
    query_count: int

    def __post_init__(self) -> None:
        for v in (*self.combined, *self.translation_only):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"recall {v} outside [0, 1]")


@dataclass
class RecallTable:
    rows: dict[str, RecallRow] = field(default_factory=dict)

    def add(self, name: str, row: RecallRow) -> None:
        """A name holding a comma or a line break would split its CSV line."""
        if "," in name or "".join(name.splitlines()) != name:
            raise ValueError(f"configuration name {name!r} holds a comma or a line break")
        self.rows[name] = row


def _estimated_pose(result) -> Pose:
    return result if isinstance(result, Pose) else result.estimated_pose


def recall_at(
    results: Sequence[tuple[object, Pose]],
    thresholds: tuple[tuple[float, float], ...] = THRESHOLDS,
) -> RecallRow:
    """Recall over (result, ground-truth pose) pairs; results may be
    LocalizationResult objects or plain poses."""
    if not results:
        raise ValueError("cannot evaluate an empty result list")
    errors = [
        (translation_error(_estimated_pose(r), gt), rotation_error(_estimated_pose(r), gt))
        for r, gt in results
    ]
    n = len(errors)
    combined = tuple(
        sum(1 for te, re_ in errors if te <= t and re_ <= r) / n for t, r in thresholds
    )
    translation_only = tuple(
        sum(1 for te, _ in errors if te <= t) / n for t, _ in thresholds
    )
    return RecallRow(combined, translation_only, n)


def check_monotonicity(row: RecallRow) -> None:
    """The threshold ladder is nested, so recall must be non-decreasing along
    it and combined recall can never beat translation-only at the same t."""
    for seq in (row.combined, row.translation_only):
        for tight, loose in zip(seq, seq[1:]):
            if loose + 1e-12 < tight:
                raise EvaluationError(
                    f"recall not monotone along the threshold ladder: {seq}"
                )
    for c, t in zip(row.combined, row.translation_only):
        if c > t + 1e-12:
            raise EvaluationError(
                f"combined recall {c} exceeds translation-only recall {t}"
            )


@dataclass(frozen=True)
class TimingReport(StageTimings):
    """Mean seconds of each stage over a set of queries."""

    hardware: str = ""

    def __post_init__(self) -> None:
        if any(getattr(self, name) < 0 for name in TIMING_STAGES):
            raise ValueError("stage means must be nonnegative")


def timing_report(results: Sequence, hardware: str = "") -> TimingReport:
    """Arithmetic mean of each stage duration over all queries."""
    if not results:
        raise ValueError("cannot build a timing report from no results")
    n = len(results)
    means = {name: sum(getattr(r.timings, name) for r in results) / n for name in TIMING_STAGES}
    return TimingReport(**means, hardware=hardware)


# --- report rendering ---------------------------------------------------------


def _row_values(row: RecallRow) -> list[float]:
    return [*reversed(row.combined), *reversed(row.translation_only)]


def render_recall_csv(table: RecallTable) -> str:
    lines = [CSV_HEADER]
    for name, row in table.rows.items():
        # repr is the shortest digit string that round-trips the float64 exactly
        values = ",".join(repr(v) for v in _row_values(row))
        lines.append(f"{name},{values},{row.query_count}")
    return "\n".join(lines) + "\n"


def parse_recall_csv(text: str) -> RecallTable:
    """The table render_recall_csv wrote; a bad line is an EvaluationError naming it."""
    lines = [(lineno, l) for lineno, l in enumerate(text.splitlines(), 1) if l.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise EvaluationError("unrecognized recall CSV header")
    table = RecallTable()
    for lineno, line in lines[1:]:
        parts = line.split(",")
        try:
            if len(parts) != 10:
                raise ValueError(f"expected 10 fields, got {len(parts)}")
            if parts[0] in table.rows:
                raise ValueError(f"configuration {parts[0]!r} repeats")
            vals = [float(v) for v in parts[1:9]]
            count = int(parts[9])
            if count < 1:
                raise ValueError(f"query count must be positive, got {count}")
            row = RecallRow(tuple(reversed(vals[:4])), tuple(reversed(vals[4:])), count)
        except ValueError as e:
            raise EvaluationError(f"recall CSV line {lineno}: {e}") from e
        table.add(parts[0], row)
    return table


def render_recall_markdown(table: RecallTable) -> str:
    lines = [MARKDOWN_HEADER, "|" + "---|" * 10]
    for name, row in table.rows.items():
        values = " | ".join(f"{v:.3f}" for v in _row_values(row))
        lines.append(f"| {name} | {values} | {row.query_count} |")
    return "\n".join(lines) + "\n"


def render_timing_markdown(report: TimingReport) -> str:
    lines = ["| stage | mean seconds |", "|---|---|"]
    for name in TIMING_STAGES:
        label = name.replace("_", " ").capitalize()
        lines.append(f"| {label} | {getattr(report, name):.5f} |")
    out = "\n".join(lines) + "\n"
    if report.hardware:
        out += f"\nHardware: {report.hardware}\n"
    return out

