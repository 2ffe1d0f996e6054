"""CSV corpus parsing, serialization and uniform resampling.

The on-disk schema follows the annotated heart-rate corpora this toolkit
targets: one header row, configurable column names for (subject, device,
timestamp, bpm, label), UTF-8, comma separated. Timestamps may be ISO-8601
or plain epoch/relative seconds; the format is auto-detected per file and
must be uniform within a file.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    EmptySeries,
    InvalidResamplePeriod,
    MalformedRow,
    MissingColumn,
    NonMonotonicTimestamps,
    OutOfRangeBpm,
    TimestampFormatError,
)
from .series import ActivityLabel, GapRecord, SubjectSeries, bpm_in_range, parse_label

DEFAULT_DEVICE = "Apple Watch"

#: Raw gaps longer than this many sampling periods are forward-filled and
#: reported instead of being interpolated across.
GAP_PERIOD_FACTOR = 10.0


@dataclass(frozen=True)
class CsvSchema:
    """Column-name map for annotated heart-rate CSV files."""

    subject: str = "subject_id"
    device: str = "device"
    timestamp: str = "timestamp"
    bpm: str = "bpm"
    label: str = "label"
    device_filter: str | None = DEFAULT_DEVICE


def _parse_timestamp(text: str, mode: str) -> tuple[float, str]:
    """Parse one timestamp cell, locking the per-file format on first use."""
    if mode in ("", "epoch"):
        try:
            t = float(text)
        except ValueError:
            if mode == "epoch":
                raise TimestampFormatError(f"mixed timestamp formats near {text!r}") from None
        else:
            if not math.isfinite(t):
                raise TimestampFormatError(f"non-finite timestamp {text!r}")
            return t, "epoch"
    try:
        dt = _dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise TimestampFormatError(f"cannot parse timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=_dt.timezone.utc)
    return dt.timestamp(), "iso"


def _parse_bpm(text: str) -> float:
    try:
        bpm = float(text)
    except ValueError:
        raise MalformedRow(f"bpm {text!r} is not a number") from None
    if not bpm_in_range(bpm):
        raise OutOfRangeBpm(bpm)
    return bpm


def _read_file(path: Path, schema: CsvSchema):
    """Yield (subject, device, t, bpm, label) tuples from one CSV file.

    A row error keeps its DataError class and gains the file and the 1-based
    line number in its message.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (schema.subject, schema.device, schema.timestamp, schema.bpm, schema.label):
            if col not in header:
                raise MissingColumn(col, str(path))
        ts_mode = ""
        for row in reader:
            try:
                if None in row.values():  # DictReader pads a short row with None
                    raise MalformedRow(f"row has fewer than {len(header)} cells")
                t, ts_mode = _parse_timestamp(row[schema.timestamp], ts_mode)
                bpm = _parse_bpm(row[schema.bpm])
                label = parse_label(row[schema.label])
            except DataError as exc:
                exc.args = (f"{path}, line {reader.line_num}: {exc}",)
                raise
            yield row[schema.subject], row[schema.device], t, bpm, label


def parse_corpus(path: str | Path, schema: CsvSchema = CsvSchema()) -> list[SubjectSeries]:
    """Parse a CSV file or a directory of CSV files into per-subject series.

    Rows are grouped by (subject, device), filtered to ``schema.device_filter``
    when set, sorted by timestamp and shifted so each series starts at t=0.
    Rows sharing a timestamp are collapsed to their mean bpm; conflicting
    labels at an equal timestamp raise NonMonotonicTimestamps.
    """
    path = Path(path)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise EmptySeries(f"no CSV files under {path}")

    groups: dict[tuple[str, str], list[tuple[float, float, int]]] = {}
    for f in files:
        for subject, device, t, bpm, label in _read_file(f, schema):
            if schema.device_filter is not None and device != schema.device_filter:
                continue
            groups.setdefault((subject, device), []).append((t, bpm, int(label)))

    corpus = []
    for (subject, device), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r[0])
        ts, bpms, labels = [], [], []
        i = 0
        while i < len(rows):
            j = i
            while j + 1 < len(rows) and rows[j + 1][0] == rows[i][0]:
                j += 1
            dup = rows[i : j + 1]
            if len({r[2] for r in dup}) > 1:
                raise NonMonotonicTimestamps(
                    f"subject {subject!r}: conflicting labels at t={rows[i][0]}"
                )
            ts.append(rows[i][0])
            bpms.append(sum(r[1] for r in dup) / len(dup))
            labels.append(rows[i][2])
            i = j + 1
        t0 = ts[0]
        corpus.append(
            SubjectSeries(
                subject_id=subject,
                device_id=device,
                timestamps=np.asarray(ts, dtype=np.float64) - t0,
                bpm=np.asarray(bpms, dtype=np.float64),
                labels=np.asarray(labels, dtype=np.int64),
            )
        )
    return corpus


def serialize_corpus(
    corpus: list[SubjectSeries], out_dir: str | Path, schema: CsvSchema = CsvSchema()
) -> list[Path]:
    """Write one CSV per series, in the same schema parse_corpus reads."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for series in corpus:
        p = out_dir / f"{series.subject_id}.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([schema.subject, schema.device, schema.timestamp, schema.bpm, schema.label])
            for t, bpm, label in zip(series.timestamps, series.bpm, series.labels):
                writer.writerow(
                    [series.subject_id, series.device_id, repr(float(t)), repr(float(bpm)),
                     ActivityLabel(int(label)).name]
                )
        paths.append(p)
    return paths


def resample_uniform(
    series: SubjectSeries, period_s: float, gap_factor: float = GAP_PERIOD_FACTOR
) -> tuple[SubjectSeries, list[GapRecord]]:
    """Resample a series onto an arithmetic grid of the given period.

    bpm is linearly interpolated between neighbours; each grid point takes the
    label of the nearest original sample (ties go to the earlier one). Raw
    gaps longer than ``gap_factor * period_s`` are forward-filled instead of
    interpolated and reported as GapRecords.
    """
    if len(series) == 0:
        raise EmptySeries(series.subject_id)
    if not (period_s > 0 and math.isfinite(period_s)):
        raise InvalidResamplePeriod(
            f"resample period must be a finite positive number of seconds, got {period_s!r}"
        )
    t = series.timestamps
    if len(series) == 1:
        return series, []

    n = int(np.floor((t[-1] - t[0]) / period_s + 1e-9)) + 1
    grid = t[0] + np.arange(n, dtype=np.float64) * period_s
    values = np.interp(grid, t, series.bpm)

    # nearest original sample for labels; ties resolved to the earlier sample
    right = np.searchsorted(t, grid, side="left")
    right = np.clip(right, 1, len(t) - 1)
    left = right - 1
    pick_right = (t[right] - grid) < (grid - t[left])
    nearest = np.where(pick_right, right, left)
    exact = np.searchsorted(t, grid, side="left")
    exact = np.clip(exact, 0, len(t) - 1)
    on_grid = t[exact] == grid
    nearest = np.where(on_grid, exact, nearest)
    labels = series.labels[nearest]

    gaps = []
    threshold = gap_factor * period_s
    raw_gaps = np.diff(t)
    for i in np.nonzero(raw_gaps > threshold)[0]:
        lo, hi = t[i], t[i + 1]
        inside = (grid > lo) & (grid < hi)
        values[inside] = series.bpm[i]
        gaps.append(GapRecord(series.subject_id, float(lo), float(hi)))

    resampled = SubjectSeries(series.subject_id, series.device_id, grid, values, labels)
    return resampled, gaps


def write_gap_report(gaps: list[GapRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "gap_start_s", "gap_end_s"])
        for g in gaps:
            writer.writerow([g.subject_id, repr(g.gap_start_s), repr(g.gap_end_s)])
