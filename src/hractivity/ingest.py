"""CSV corpus parsing, serialization and uniform resampling.

The on-disk schema follows the annotated heart-rate corpora this toolkit
targets: one header row that names the fixed columns in ``COLUMNS``
(subject_id, device, timestamp, bpm, label) in any order, UTF-8, comma
separated. Timestamps may be ISO-8601 or plain epoch/relative seconds; the
format is auto-detected per file and must be uniform within a file. Each file
is read once; a byte that is not UTF-8 raises a DataError that names the file
and line. A text that csv would cut at every comma and line end (no quote, one
kind of line end, rows of the header's width) is cut by one ``str.split`` and
converted a column at a time. Any other text, or a plain one with a bad cell,
is read row by row by csv.reader, and its first bad row raises a DataError
that names the file and line.

``serialize_corpus`` writes the bytes of csv's excel dialect: only the
subject and device cells can need quoting, so each series' prefix is
quoted once and each file is written in one join, with ``repr`` floats
that parse back bit for bit.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import math
from itertools import repeat
from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .errors import DataError, InternalError
from .series import (
    BPM_MAX,
    BPM_MIN,
    LABEL_NAMES,
    ActivityLabel,
    GapRecord,
    SubjectSeries,
    bpm_in_range,
    parse_label,
)

DEFAULT_DEVICE = "Apple Watch"

#: Raw gaps longer than this many sampling periods are forward-filled and
#: reported instead of being interpolated across.
GAP_PERIOD_FACTOR = 10.0

#: A resampling grid of more points than this is refused, not allocated:
#: about 116 days at a 1 s period, 80 MB per float64 array.
MAX_GRID_POINTS = 10**7

#: Header names of the subject, device, timestamp, bpm and label columns.
COLUMNS = ("subject_id", "device", "timestamp", "bpm", "label")


def _iso_seconds(text: str) -> float:
    try:
        dt = _dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise DataError(f"cannot parse timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=_dt.timezone.utc)
    return dt.timestamp()


def _parse_timestamp(text: str, mode: str) -> tuple[float, str]:
    """Parse one timestamp cell, locking the per-file format on first use."""
    if mode in ("", "epoch"):
        try:
            t = float(text)
        except ValueError:
            if mode == "epoch":
                raise DataError(f"mixed timestamp formats near {text!r}") from None
        else:
            if not math.isfinite(t):
                raise DataError(f"non-finite timestamp {text!r}")
            return t, "epoch"
    return _iso_seconds(text), "iso"


def _parse_bpm(text: str) -> float:
    try:
        bpm = float(text)
    except ValueError:
        raise DataError(f"bpm {text!r} is not a number") from None
    if not bpm_in_range(bpm):
        raise DataError(f"bpm {bpm} outside the accepted (20, 250) range")
    return bpm


_LABEL_CODES = {label.name: int(label) for label in ActivityLabel}


def _timestamp_column(cells: list[str]) -> np.ndarray:
    """Seconds for one file's timestamp cells; the first cell fixes the format."""
    if not cells:
        return np.zeros(0)
    try:
        float(cells[0])
    except ValueError:
        return np.fromiter(map(_iso_seconds, cells), np.float64, len(cells))
    t = np.fromiter(map(float, cells), np.float64, len(cells))
    if not np.isfinite(t).all():
        raise ValueError("non-finite timestamp")
    return t


def _column_index(header: list[str], path: Path) -> tuple[int, list[int]]:
    """(header width, column index of each name in ``COLUMNS``)."""
    index = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    for col in COLUMNS:
        if col not in index:
            raise DataError(f"missing column {col!r} in {path}")
    return len(header), [index[col] for col in COLUMNS]


def _read_rows(path: Path, text: str):
    """(subjects, devices, t, bpm, labels) columns of ``text`` read row by row.

    Each row is checked as it is converted, so the first bad row raises: its
    DataError gains the file and the 1-based line number in its message. A
    row csv cannot split raises a DataError worded the same way.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    subjects, devices, ts, bpms, labels = [], [], [], [], []
    try:
        width, (si, di, ti, bi, li) = _column_index(next(reader, []), path)
        ts_mode = ""
        for row in reader:
            if not row:
                continue
            try:
                if len(row) < width:
                    raise DataError(f"row has fewer than {width} cells")
                t, ts_mode = _parse_timestamp(row[ti], ts_mode)
                bpms.append(_parse_bpm(row[bi]))
                labels.append(parse_label(row[li]))
            except DataError as exc:
                exc.args = (f"{path}, line {reader.line_num}: {exc}",)
                raise
            ts.append(t)
            subjects.append(row[si])
            devices.append(row[di])
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return (subjects, devices, np.array(ts, np.float64), np.array(bpms, np.float64),
            np.array(labels, np.int64))


def _split_plain(text: str) -> tuple[list[str], list[str]] | None:
    """(header, body cells row after row) as csv.reader would cut ``text``, or None.

    None unless csv.reader would cut the text at every comma and every line
    end: the text has no quote and no NUL, its line ends are all LF or all
    CRLF, no line is longer than csv's field limit, and every non-blank body
    row has the header's width. Blank lines hold no cells.
    """
    if '"' in text or "\0" in text:
        return None
    cr = text.count("\r")
    lines = text.split("\r\n" if cr else "\n")
    if cr and not cr == text.count("\n") == len(lines) - 1:
        return None  # a lone CR or LF ends a row that a split on CRLF would join
    limit = csv.field_size_limit()
    if not lines[0] or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    header = lines[0].split(",")
    rows = list(filter(None, lines[1:]))
    if rows and set(map(str.count, rows, repeat(","))) != {len(header) - 1}:
        return None
    return header, ",".join(rows).split(",") if rows else []


def _read_file(path: Path):
    """(subjects, devices, t, bpm, labels) columns of one CSV file.

    The file is read once. A text of plain cells is cut by ``_split_plain``
    and its whole columns are converted at once; any other text, and a plain
    one with a cell that fails a check, goes to ``_read_rows``, so an error
    names the first bad line. Blank lines are skipped.
    """
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise DataError(f"{path}, line {line}: byte {raw[exc.start]:#04x} is not UTF-8") from None
    plain = _split_plain(text)
    if plain is None:
        return _read_rows(path, text)
    header, cells = plain
    width, index = _column_index(header, path)
    subjects, devices, t, bpm, labels = (cells[i::width] for i in index)
    n = len(t)
    try:
        t = _timestamp_column(t)
        bpm = np.fromiter(map(float, bpm), np.float64, n)
        if not ((bpm > BPM_MIN) & (bpm < BPM_MAX)).all():
            raise ValueError("bpm out of range")
        labels = np.fromiter(map(_LABEL_CODES.__getitem__, labels), np.int64, n)
    except (ValueError, KeyError, DataError):  # the row reader says which row and why
        _read_rows(path, text)
        raise InternalError(f"{path}: a column check failed but no row did")
    return subjects, devices, t, bpm, labels


def _collapse_duplicates(subject: str, t, bpm, labels, starts) -> np.ndarray:
    """Mean bpm of each run of equal shifted timestamps (runs begin at ``starts``)."""
    ends = np.append(starts[1:], t.size)
    out = bpm[starts]
    values = bpm.tolist()
    for j in np.flatnonzero(ends - starts > 1):
        a, b = int(starts[j]), int(ends[j])
        if (labels[a:b] != labels[a]).any():
            raise DataError(f"subject {subject!r}: conflicting labels at t={float(t[a])}")
        out[j] = sum(values[a:b]) / (b - a)
    return out


def parse_corpus(path: str | Path,
                 device_filter: str | None = DEFAULT_DEVICE) -> list[SubjectSeries]:
    """Parse a CSV file or a directory of CSV files into per-subject series.

    Rows are grouped by (subject, device), kept only for ``device_filter``
    unless it is None, sorted by timestamp (stable, so equal timestamps keep
    file and row order) and shifted so each series starts at t=0. Rows sharing a
    shifted timestamp are collapsed to their mean bpm; conflicting labels at an
    equal timestamp raise a DataError that names the file's timestamp. Every row
    is checked, including rows of filtered-out devices.
    """
    path = Path(path)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise DataError(f"no CSV files under {path}")

    keys: dict[tuple[str, str], int] = {}
    codes, ts, bpms, labels = [], [], [], []
    for f in files:
        subjects, devices, t, bpm, label = _read_file(f)
        n = len(t)
        if n and subjects.count(subjects[0]) == n and devices.count(devices[0]) == n:
            code = keys.setdefault((subjects[0], devices[0]), len(keys))  # one series
            codes.append(np.full(n, code, np.int64))
        else:
            pairs = list(zip(subjects, devices))
            for key in dict.fromkeys(pairs):  # new keys, in first-seen order
                keys.setdefault(key, len(keys))
            codes.append(np.fromiter(map(keys.__getitem__, pairs), np.int64, n))
        ts.append(t)
        bpms.append(bpm)
        labels.append(label)
    codes, ts, bpms, labels = (np.concatenate(c) for c in (codes, ts, bpms, labels))
    by_key = np.argsort(codes, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(codes, minlength=len(keys)))])

    corpus = []
    for (subject, device), code in sorted(keys.items()):
        if device_filter is not None and device != device_filter:
            continue
        rows = by_key[bounds[code] : bounds[code + 1]]
        rows = rows[np.argsort(ts[rows], kind="stable")]
        t, bpm, label = ts[rows], bpms[rows], labels[rows]
        shifted = t - t[0]  # the shift can make distinct timestamps equal
        starts = np.flatnonzero(np.concatenate([[True], shifted[1:] != shifted[:-1]]))
        if starts.size < t.size:
            bpm = _collapse_duplicates(subject, t, bpm, label, starts)
        corpus.append(
            SubjectSeries(
                subject_id=subject,
                device_id=device,
                timestamps=shifted[starts],
                bpm=bpm,
                labels=label[starts],
            )
        )
    return corpus


def serialize_corpus(corpus: list[SubjectSeries], out_dir: str | Path) -> list[Path]:
    """Write one CSV per series, in the same schema parse_corpus reads."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for series in corpus:
        p = out_dir / f"{series.subject_id}.csv"
        cells = io.StringIO()
        csv.writer(cells).writerow((series.subject_id, series.device_id, ""))
        prefix = cells.getvalue()[:-2]  # "subject,device," less the writer's "\r\n"
        rows = zip(series.timestamps.tolist(), series.bpm.tolist(), series.labels.tolist())
        with open(p, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(COLUMNS) + "\r\n" + "".join(
                f"{prefix}{t!r},{b!r},{LABEL_NAMES[label]}\r\n" for t, b, label in rows))
        paths.append(p)
    return paths


def resample_uniform(
    series: SubjectSeries, period_s: float
) -> tuple[SubjectSeries, list[GapRecord]]:
    """Resample a series onto an arithmetic grid of the given period.

    bpm is linearly interpolated between neighbours; each grid point takes the
    label of the nearest original sample (ties go to the earlier one). Raw
    gaps longer than ``GAP_PERIOD_FACTOR * period_s`` are forward-filled instead of
    interpolated and reported as GapRecords. A grid of more than
    ``MAX_GRID_POINTS`` points raises a DataError.
    """
    if not (period_s > 0 and math.isfinite(period_s)):
        raise DataError(
            f"resample period must be a finite positive number of seconds, got {period_s!r}"
        )
    t = series.timestamps
    if len(series) == 1:
        return series, []

    span = float(t[-1] - t[0])
    count = np.floor(span / period_s + 1e-9) + 1.0  # a float, so no int is ever too large
    if not count <= MAX_GRID_POINTS:
        raise DataError(
            f"subject {series.subject_id!r}: resampling a span of {span!r} s at a period of "
            f"{period_s!r} s needs {count:.4g} grid points, more than {MAX_GRID_POINTS}")
    n = int(count)
    grid = t[0] + np.arange(n, dtype=np.float64) * period_s
    values = np.interp(grid, t, series.bpm)

    # nearest original sample for labels; ties resolved to the earlier sample.
    # A grid point on a sample picks it: distance 0, the other side's positive.
    right = np.searchsorted(t, grid, side="left")
    right = np.clip(right, 1, len(t) - 1)
    left = right - 1
    pick_right = (t[right] - grid) < (grid - t[left])
    nearest = np.where(pick_right, right, left)
    labels = series.labels[nearest]

    gaps = []
    threshold = GAP_PERIOD_FACTOR * period_s
    raw_gaps = np.diff(t)
    for i in np.nonzero(raw_gaps > threshold)[0]:
        lo, hi = t[i], t[i + 1]  # the grid points strictly between, found in the sorted grid
        inside = slice(np.searchsorted(grid, lo, "right"), np.searchsorted(grid, hi, "left"))
        values[inside] = series.bpm[i]
        gaps.append(GapRecord(series.subject_id, float(lo), float(hi)))

    resampled = SubjectSeries(series.subject_id, series.device_id, grid, values, labels)
    return resampled, gaps


def write_gap_report(gaps: list[GapRecord], path: str | Path) -> None:
    write_csv(path, ["subject_id", "gap_start_s", "gap_end_s"],
              ([g.subject_id, repr(g.gap_start_s), repr(g.gap_end_s)] for g in gaps))
