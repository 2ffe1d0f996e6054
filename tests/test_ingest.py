"""Corpus parsing, serialization round-trips and uniform resampling."""

import builtins
import io
from pathlib import Path

import numpy as np
import pytest
from oracles import ReferenceRowError, parse_corpus_reference, serialize_corpus_reference

from hractivity import ingest
from hractivity.cli import main
from hractivity.errors import DataError
from hractivity.ingest import (
    parse_corpus,
    resample_uniform,
    serialize_corpus,
    write_gap_report,
)
from hractivity.series import ActivityLabel, SubjectSeries
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic

HEADER = "subject_id,device,timestamp,bpm,label\n"


def write_csv(tmp_path, rows, name="corpus.csv", header=None):
    """A file of ``header`` and ``rows``; the default header ends its line as the first row does."""
    if header is None:
        header = HEADER.replace("\n", "\r\n") if rows and rows[0].endswith("\r\n") else HEADER
    p = tmp_path / name
    p.write_text(header + "".join(rows), encoding="utf-8")
    return p


def test_parse_three_rows_maps_directly(tmp_path):
    p = write_csv(
        tmp_path,
        [
            "A,Apple Watch,0,60,Rest\n",
            "A,Apple Watch,1,61,Rest\n",
            "A,Apple Watch,2,62,Breathe\n",
        ],
    )
    corpus = parse_corpus(p)
    assert len(corpus) == 1
    s = corpus[0]
    assert s.subject_id == "A"
    assert len(s) == 3
    assert list(s.labels) == [ActivityLabel.Rest, ActivityLabel.Rest, ActivityLabel.Breathe]
    assert list(s.bpm) == [60.0, 61.0, 62.0]


def test_parse_out_of_range_bpm(tmp_path):
    p = write_csv(tmp_path, ["A,Apple Watch,0,300,Rest\n"])
    refused = r"corpus\.csv, line 2: bpm 300\.0 outside the accepted \(20, 250\) range$"
    with pytest.raises(DataError, match=refused):
        parse_corpus(p)


@pytest.mark.parametrize(
    "bad_row",
    [
        "A,Apple Watch,1,abc,Rest\n",  # non-numeric bpm
        "A,Apple Watch,1\n",  # last two cells missing
        "A,Apple Watch,,61,Rest\n",  # empty timestamp
        "A,Apple Watch,inf,61,Rest\n",  # non-finite timestamp
    ],
)
def test_parse_bad_row_names_file_and_line(tmp_path, bad_row):
    p = write_csv(tmp_path, ["A,Apple Watch,0,60,Rest\n", bad_row], name="bad.csv")
    with pytest.raises(DataError, match=r"bad\.csv, line 3: "):
        parse_corpus(p)


def test_parse_duplicate_timestamps_collapse_to_mean(tmp_path):
    p = write_csv(
        tmp_path,
        [
            "A,Apple Watch,5,60,Rest\n",
            "A,Apple Watch,5,70,Rest\n",
            "A,Apple Watch,6,80,Rest\n",
        ],
    )
    s = parse_corpus(p)[0]
    assert len(s) == 2
    assert s.bpm[0] == 65.0
    # series are shifted to start at t=0
    assert s.timestamps[0] == 0.0 and s.timestamps[1] == 1.0


def test_parse_duplicate_timestamps_conflicting_labels(tmp_path):
    p = write_csv(
        tmp_path,
        ["A,Apple Watch,5,60,Rest\n", "A,Apple Watch,5,70,Breathe\n"],
    )
    with pytest.raises(DataError, match=r"^subject 'A': conflicting labels at t=5\.0$"):
        parse_corpus(p)


SHIFT_MERGES = ["A,Apple Watch,-1.0,70,Rest\n", "A,Apple Watch,0.0,71,Rest\n",
                "A,Apple Watch,2.5e-30,72,Rest\n"]  # 0.0 and 2.5e-30 are equal after +1.0


def test_timestamps_equal_after_the_shift_collapse_to_mean(tmp_path):
    p = write_csv(tmp_path, SHIFT_MERGES)
    s = parse_corpus(p)[0]
    assert s.timestamps.tolist() == [0.0, 1.0]
    assert s.bpm.tolist() == [70.0, 71.5]
    ((_, _, ref_t, ref_bpm, _),) = parse_corpus_reference(p)
    assert ref_t.tolist() == [0.0, 1.0] and ref_bpm.tolist() == [70.0, 71.5]


def test_timestamps_equal_after_the_shift_with_conflicting_labels(tmp_path):
    p = write_csv(tmp_path, SHIFT_MERGES[:2] + [SHIFT_MERGES[2].replace("Rest", "Type")])
    with pytest.raises(DataError, match=r"^subject 'A': conflicting labels at t=0\.0$"):
        parse_corpus(p)


def test_parse_missing_column(tmp_path):
    p = write_csv(tmp_path, ["A,0,60,Rest\n"], header="subject_id,timestamp,bpm,label\n")
    with pytest.raises(DataError, match=r"^missing column 'device' in .*corpus\.csv$"):
        parse_corpus(p)


def test_parse_unknown_label(tmp_path):
    p = write_csv(tmp_path, ["A,Apple Watch,0,60,Jog\n"])
    with pytest.raises(DataError, match=r"corpus\.csv, line 2: unknown activity label 'Jog'$"):
        parse_corpus(p)


def test_parse_filters_other_devices(tmp_path):
    p = write_csv(
        tmp_path,
        [
            "A,Apple Watch,0,60,Rest\n",
            "A,Fitbit,0,90,Rest\n",
            "A,Fitbit,1,91,Rest\n",
        ],
    )
    corpus = parse_corpus(p)
    assert len(corpus) == 1
    assert corpus[0].device_id == "Apple Watch"
    assert len(corpus[0]) == 1

    everything = parse_corpus(p, device_filter=None)
    assert {s.device_id for s in everything} == {"Apple Watch", "Fitbit"}


def test_parse_iso_timestamps(tmp_path):
    p = write_csv(
        tmp_path,
        [
            "A,Apple Watch,2021-03-01T10:00:00Z,60,Rest\n",
            "A,Apple Watch,2021-03-01T10:00:05Z,61,Rest\n",
        ],
    )
    s = parse_corpus(p)[0]
    assert s.timestamps[0] == 0.0
    assert s.timestamps[1] == 5.0


def test_parse_rejects_mixed_timestamp_formats(tmp_path):
    p = write_csv(
        tmp_path,
        ["A,Apple Watch,0,60,Rest\n", "A,Apple Watch,2021-03-01T10:00:05Z,61,Rest\n"],
    )
    refused = r"corpus\.csv, line 3: mixed timestamp formats near '2021-03-01T10:00:05Z'$"
    with pytest.raises(DataError, match=refused):
        parse_corpus(p)


def test_parse_directory_collects_all_files(tmp_path):
    write_csv(tmp_path, ["A,Apple Watch,0,60,Rest\n"], name="a.csv")
    write_csv(tmp_path, ["B,Apple Watch,0,70,Rest\n"], name="b.csv")
    corpus = parse_corpus(tmp_path)
    assert [s.subject_id for s in corpus] == ["A", "B"]


def test_round_trip_identity(tmp_path):
    spec = SyntheticCohortSpec(n_subjects=4, n_groups=2, seed=7)
    corpus, _ = generate_synthetic(spec)
    serialize_corpus(corpus, tmp_path / "out")
    back = parse_corpus(tmp_path / "out", device_filter=None)
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert a.subject_id == b.subject_id
        assert a.device_id == b.device_id
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.bpm, b.bpm)  # repr() round-trips floats exactly
        assert np.array_equal(a.labels, b.labels)


def make_series(ts, bpm, labels=None, subject="A"):
    if labels is None:
        labels = [0] * len(ts)
    return SubjectSeries(subject, "dev", np.asarray(ts, float), np.asarray(bpm, float), np.asarray(labels))


def test_resample_linear_interpolation():
    s = make_series([0.0, 2.0], [60.0, 70.0])
    out, gaps = resample_uniform(s, 1.0)
    assert gaps == []
    assert np.array_equal(out.timestamps, [0.0, 1.0, 2.0])
    assert np.array_equal(out.bpm, [60.0, 65.0, 70.0])


def test_resample_single_sample_identity():
    s = make_series([3.0], [72.0])
    out, gaps = resample_uniform(s, 1.0)
    assert out is s
    assert gaps == []


def test_resample_gap_forward_fill_and_report(tmp_path):
    s = make_series([0.0, 30.0], [60.0, 90.0], labels=[0, 2])
    out, gaps = resample_uniform(s, 1.0)
    assert len(out) == 31
    # inside the gap bpm holds the last pre-gap value; the far edge keeps its own
    assert np.all(out.bpm[1:30] == 60.0)
    assert out.bpm[30] == 90.0
    assert len(gaps) == 1
    assert (gaps[0].gap_start_s, gaps[0].gap_end_s) == (0.0, 30.0)

    report = tmp_path / "gaps.csv"
    write_gap_report(gaps, report)
    lines = report.read_text().splitlines()
    assert lines[0] == "subject_id,gap_start_s,gap_end_s"
    assert lines[1] == "A,0.0,30.0"


def test_resample_gap_fill_matches_the_mask_formula():
    # each forward-filled gap covers the grid points strictly inside it; integer gap
    # ends on a period-0.5 or period-1 grid fall exactly on grid points
    rng = np.random.default_rng(11)
    for trial in range(60):
        steps = np.where(rng.random(50) < 0.2, rng.integers(12, 40, 50), rng.integers(1, 3, 50))
        t = np.concatenate([[0.0], np.cumsum(steps).astype(np.float64)])
        if trial % 3 == 2:
            t = t + rng.uniform(0.0, 0.4, t.size).cumsum()  # gap ends between grid points
        series = make_series(t, rng.uniform(40.0, 200.0, t.size))
        period = (0.5, 1.0, 0.7)[trial % 3]
        resampled, gaps = resample_uniform(series, period)
        grid = resampled.timestamps
        expected = np.interp(grid, t, series.bpm)
        for i in np.nonzero(np.diff(t) > ingest.GAP_PERIOD_FACTOR * period)[0]:
            expected[(grid > t[i]) & (grid < t[i + 1])] = series.bpm[i]
        assert len(gaps) == int((np.diff(t) > ingest.GAP_PERIOD_FACTOR * period).sum())
        assert resampled.bpm.tobytes() == expected.tobytes()


def test_resample_label_nearest_ties_to_earlier():
    s = make_series([0.0, 30.0], [60.0, 90.0], labels=[0, 2])
    out, _ = resample_uniform(s, 1.0)
    # t=15 is equidistant from both samples: earlier sample wins
    assert out.labels[14] == 0 and out.labels[15] == 0 and out.labels[16] == 2
    # a grid point on a sample, the first and last included, takes its label
    s = make_series([5.0, 6.0, 6.5, 8.0], [60.0] * 4, labels=[1, 3, 4, 2])
    out, _ = resample_uniform(s, 1.0)
    assert np.array_equal(out.timestamps, [5.0, 6.0, 7.0, 8.0])
    assert np.array_equal(out.labels, [1, 3, 4, 2])


def test_resample_grid_is_uniform_and_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        ts = np.cumsum(rng.uniform(0.2, 3.0, size=n))
        ts -= ts[0]
        bpm = rng.uniform(55, 110, size=n)
        labels = rng.integers(0, 5, size=n)
        s = make_series(ts, bpm, labels)
        once, _ = resample_uniform(s, 1.0)
        assert np.allclose(np.diff(once.timestamps), 1.0, atol=1e-9)
        twice, gaps = resample_uniform(once, 1.0)
        assert gaps == []
        assert np.array_equal(once.timestamps, twice.timestamps)
        assert np.array_equal(once.bpm, twice.bpm)
        assert np.array_equal(once.labels, twice.labels)


def test_resample_empty_period_validation():
    s = make_series([0.0, 1.0], [60.0, 61.0])
    for period in (0.0, -1.0, float("inf"), float("nan")):
        refused = "^resample period must be a finite positive number of seconds, got "
        with pytest.raises(DataError, match=refused):
            resample_uniform(s, period)
        with pytest.raises(DataError, match=refused):
            resample_uniform(make_series([3.0], [72.0]), period)


def test_resample_refuses_a_grid_over_the_limit(monkeypatch):
    monkeypatch.setattr(ingest, "MAX_GRID_POINTS", 100)
    out, _ = resample_uniform(make_series([0.0, 99.0], [60.0, 61.0]), 1.0)
    assert len(out) == 100
    with pytest.raises(DataError, match="^subject 'Far': resampling") as refused:
        resample_uniform(make_series([0.0, 100.0], [60.0, 61.0], subject="Far"), 1.0)
    assert str(refused.value) == ("subject 'Far': resampling a span of 100.0 s at a period of "
                                  "1.0 s needs 101 grid points, more than 100")
    # span / period overflows to inf: refused, never turned into an int
    with pytest.raises(DataError, match="needs inf grid points"):
        resample_uniform(make_series([0.0, 1e300], [60.0, 61.0]), 1e-10)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_series_rejects_non_finite_timestamps(bad):
    with pytest.raises(DataError, match="finite"):
        make_series([bad], [60.0])
    with pytest.raises(DataError, match="finite"):
        make_series([0.0, bad], [60.0, 61.0])


def test_parse_empty_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError, match=r"^no CSV files under .*empty$"):
        parse_corpus(tmp_path / "empty")


# -- the column-wise reader against a DictReader reference --------------------

def assert_parse_matches_reference(path, device_filter="Apple Watch"):
    try:
        expected = parse_corpus_reference(path, device_filter=device_filter)
    except ReferenceRowError as exc:
        kind, message = exc.args
        with pytest.raises(DataError) as info:
            parse_corpus(path, device_filter)
        assert type(info.value).__name__ == kind
        assert str(info.value) == message
        return
    corpus = parse_corpus(path, device_filter)
    assert len(corpus) == len(expected)
    for series, (subject, device, ts, bpm, labels) in zip(corpus, expected):
        assert (series.subject_id, series.device_id) == (subject, device)
        assert series.timestamps.tobytes() == ts.astype(np.float64).tobytes()
        assert series.bpm.tobytes() == bpm.astype(np.float64).tobytes()
        assert series.labels.tolist() == labels.tolist()


PARSE_CASES = {
    "duplicates-unsorted": ["A,Apple Watch,3,61.1,Rest\n", "A,Apple Watch,1,70.3,Rest\n",
                            "A,Apple Watch,3,62.7,Rest\n", "A,Apple Watch,2,64,Breathe\n",
                            "A,Apple Watch,3,66.05,Rest\n", "A,Apple Watch,1,70.9,Rest\n"],
    "conflicting-labels": ["A,Apple Watch,0,60,Rest\n", "A,Apple Watch,1,61,Rest\n",
                           "A,Apple Watch,1,62,Type\n"],
    "devices": ["A,Apple Watch,0,60,Rest\n", "A,Fitbit,0,90,Rest\n", "B,Fitbit,1,91,Type\n",
                "A,Apple Watch,1,60.5,Rest\n"],
    "iso": ["A,Apple Watch,2021-03-01T10:00:05Z,61,Rest\n",
            "A,Apple Watch,2021-03-01T10:00:00+00:00,60,Rest\n",
            "A,Apple Watch,2021-03-01T10:00:05,63,Rest\n"],
    "blank-lines-then-bad-bpm": ["A,Apple Watch,0,60,Rest\n", "\n", "\n", "A,Apple Watch,1,x,Rest\n"],
    "quoted-newline-then-bad-label": ['"A\nA",Apple Watch,0,60,Rest\n', "A,Apple Watch,1,61,Jog\n"],
    "short-row": ["A,Apple Watch,0,60,Rest\n", "A,Apple Watch,1,61\n"],
    "short-row-after-bad-bpm": ["A,Apple Watch,0,600,Rest\n", "A,Apple Watch,1\n"],
    "bad-timestamp-before-bad-bpm": ["A,Apple Watch,0,60,Rest\n", "A,Apple Watch,?,abc,Rest\n"],
    "nan-bpm": ["A,Apple Watch,0,nan,Rest\n"],
    "empty-timestamp": ["A,Apple Watch,,60,Rest\n"],
    "inf-timestamp-later": ["A,Apple Watch,0,60,Rest\n", "A,Apple Watch,-inf,60,Rest\n"],
    "epoch-then-iso": ["A,Apple Watch,0,60,Rest\n", "A,Apple Watch,2021-03-01T10:00:05Z,61,Rest\n"],
    "iso-then-epoch": ["A,Apple Watch,2021-03-01T10:00:05Z,61,Rest\n", "A,Apple Watch,7,61,Rest\n"],
    "bad-row-on-filtered-device": ["A,Apple Watch,0,60,Rest\n", "A,Fitbit,1,19,Rest\n"],
    "unknown-label": ["A,Apple Watch,0,60,rest\n"],
    # a long run: a sum in another order than the rows' would change the mean's last bits
    "long-duplicate-run": [f"A,Apple Watch,4,{60 + 7.31 * i % 90!r},Rest\n" for i in range(20)],
    # CRLF rows around an LF-ended short row: a split on CRLF would join it to the
    # next line into a row that parses, as float("1\n") is 1.0
    "crlf-file-with-lf-short-row": ["S,d,0,60,Rest\r\n", "S,d,1\n", ",60,Rest\r\n",
                                    "S,d,2,62,Rest\r\n"],
    "lone-cr-line-end": ["A,Apple Watch,0,60,Rest\r", "A,Apple Watch,1,61,Rest\n"],
    "whitespace-only-line": ["A,Apple Watch,0,60,Rest\n", " \n", "A,Apple Watch,1,61,Rest\n"],
    "extra-cell": ["A,Apple Watch,0,60,Rest,x\n", "A,Apple Watch,1,61,Rest\n"],
    # as many cells as two full rows, but the second row is short
    "extra-cell-then-short-row": ["A,Apple Watch,0,60,Rest,A\n", "Apple Watch,1,61,Rest\n"],
    "nul-in-cell": ["A\0B,Apple Watch,0,60,Rest\n", "A\0B,Apple Watch,1,61,Rest\n"],
    "quoted-subject": ['"A,1",Apple Watch,0,60,Rest\n', '"A,1",Apple Watch,1,61,Rest\n'],
    "same-rows-lf": ["A,Apple Watch,1,61,Rest\n", "A,Apple Watch,0,60,Type\n", "\n"],
    "same-rows-crlf": ["A,Apple Watch,1,61,Rest\r\n", "A,Apple Watch,0,60,Type\r\n", "\r\n"],
}


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
@pytest.mark.parametrize("device_filter", ["Apple Watch", None])
def test_parse_matches_dictreader_reference(tmp_path, case, device_filter):
    path = write_csv(tmp_path, PARSE_CASES[case], name="bad.csv")
    assert_parse_matches_reference(path, device_filter)


def test_parse_matches_reference_across_files(tmp_path):
    # one subject spread over three files, duplicates across files, a bad row in the last file
    write_csv(tmp_path, ["A,Apple Watch,2,60,Rest\n", "B,Apple Watch,0,70,Rest\n"], name="a.csv")
    write_csv(tmp_path, ["A,Apple Watch,2,61.3,Rest\n", "A,Apple Watch,0,62,Type\n"], name="b.csv")
    write_csv(tmp_path, ["A,Apple Watch,1,63,Rest\n", "B,Fitbit,1,71,Rest\n"], name="c.csv")
    assert_parse_matches_reference(tmp_path)
    assert_parse_matches_reference(tmp_path, None)
    write_csv(tmp_path, ["C,Apple Watch,1,63,Rest\n", "C,Apple Watch,2,63,Nap\n"], name="d.csv")
    with pytest.raises(DataError, match=r"d\.csv, line 3: unknown activity label 'Nap'$"):
        parse_corpus(tmp_path)
    assert_parse_matches_reference(tmp_path)


def test_parse_matches_reference_on_random_corpora(tmp_path):
    rng = np.random.default_rng(5)
    names = [label.name for label in ActivityLabel]
    for trial in range(40):
        folder = tmp_path / f"t{trial}"
        folder.mkdir()
        for f in range(int(rng.integers(1, 4))):
            rows = []
            for _ in range(int(rng.integers(0, 40))):
                t = int(rng.integers(0, 12))
                label = names[t % 5] if rng.random() > 0.02 else names[(t + 1) % 5]
                rows.append(f"{rng.choice(['A', 'B'])},{rng.choice(['Apple Watch', 'Fitbit'])},"
                            f"{t * 0.5!r},{rng.uniform(40, 200)!r},{label}\n")
            write_csv(folder, rows, name=f"f{f}.csv")
        for device_filter in ("Apple Watch", None):
            assert_parse_matches_reference(folder, device_filter)


def test_serialize_matches_a_row_writer(tmp_path):
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=2, n_groups=1, seed=4))
    (path, _) = serialize_corpus(corpus, tmp_path)
    series = corpus[0]
    lines = ["subject_id,device,timestamp,bpm,label"] + [
        f"{series.subject_id},{series.device_id},{float(t)!r},{float(b)!r},"
        f"{ActivityLabel(int(label)).name}"
        for t, b, label in zip(series.timestamps, series.bpm, series.labels)
    ]
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def test_series_rejects_labels_outside_the_activities():
    for bad in (-1, 5):
        with pytest.raises(DataError, match="ActivityLabel"):
            make_series([0.0, 1.0], [60.0, 61.0], labels=[0, bad])


# -- the joined writer against a csv.writer row loop -----------------------------

def assert_serialize_matches_reference(corpus, tmp_path):
    paths = serialize_corpus(corpus, tmp_path / "joined")
    expected = serialize_corpus_reference(corpus, tmp_path / "rows")
    assert [p.name for p in paths] == [p.name for p in expected]
    for got, ref in zip(paths, expected):
        assert got.read_bytes() == ref.read_bytes(), got.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serialize_matches_row_writer_on_generated_cohorts(tmp_path, seed):
    corpus, _ = generate_synthetic(SyntheticCohortSpec(n_subjects=3, n_groups=2, seed=seed))
    assert_serialize_matches_reference(corpus, tmp_path)


QUOTED_IDS = [  # (subject, device): each cell needs csv quoting or keeps an edge
    ("a,b", "Apple Watch"),
    ('say "hi"', "dev"),
    ("line\nbreak", "dev\rcr"),
    ("no-device", ""),
    (" leading", " space"),
    ("", "empty subject"),
]


def test_serialize_quotes_ids_like_the_row_writer_and_round_trips(tmp_path):
    rng = np.random.default_rng(9)
    corpus = [
        SubjectSeries(subject, device, np.cumsum(rng.uniform(0.5, 2.0, 30)) - 0.5,
                      rng.uniform(40.0, 200.0, 30), rng.integers(0, 5, 30))
        for subject, device in QUOTED_IDS
    ]
    assert_serialize_matches_reference(corpus, tmp_path)
    back = parse_corpus(tmp_path / "joined", device_filter=None)
    by_key = {(s.subject_id, s.device_id): s for s in corpus}
    assert sorted(by_key) == [(s.subject_id, s.device_id) for s in back]
    for series in back:
        orig = by_key[(series.subject_id, series.device_id)]
        assert series.timestamps.tobytes() == (orig.timestamps - orig.timestamps[0]).tobytes()
        assert series.bpm.tobytes() == orig.bpm.tobytes()
        assert series.labels.tolist() == orig.labels.tolist()


# -- files csv or UTF-8 cannot read: a DataError with file and line, exit 3 ----

H = HEADER.encode()

UNREADABLE = {  # (the file's bytes, the line named, the reason)
    "non-utf8-bpm": (H + b"A,Apple Watch,0,60,Rest\r\nA,Apple Watch,1,6\xff,Rest\r\n", 3,
                     "byte 0xff is not UTF-8"),
    "oversized-quoted-field": (H + b'A,Apple Watch,0,60,Rest\n"' + b"x" * 200_000
                               + b'",Apple Watch,1,61,Rest\n', 3, "field larger than field limit"),
    "oversized-plain-field": (H + b"A,Apple Watch,0,60,Rest\nA," + b"x" * 200_000
                              + b",1,61,Rest\n", 3, "field larger than field limit"),
    "non-utf8-after-cr-lines": (H + b"A,Apple Watch,0,60,Rest\rA,Apple Watch,1,61,Rest\r\xfe", 4,
                                "byte 0xfe is not UTF-8"),
    # a header without 'label', and a bad byte past the first 8 KiB a text reader decodes
    "non-utf8-past-a-missing-column": (
        b"subject_id,device,timestamp,bpm\n"
        + b"".join(b"A,Apple Watch,%d,60\n" % i for i in range(400))
        + b"A,Apple Watch,400,6\xff\n", 402, "byte 0xff is not UTF-8"),
    # quoted cells: the bad bpm on line 3 comes before the field csv cannot split on line 5
    "quoted-bad-bpm-before-oversized-field": (
        H + b'"A",Apple Watch,0,60,Rest\n"A",Apple Watch,1,999,Rest\n"A",Apple Watch,2,61,Rest\n"'
        + b"x" * 200_000 + b'",Apple Watch,3,61,Rest\n', 3, "bpm 999.0 outside the accepted"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_is_a_malformed_row(tmp_path, case, capsys):
    data, line, reason = UNREADABLE[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=rf"bad\.csv, line {line}: {reason}"):
        parse_corpus(path)
    ini = tmp_path / "ingest.ini"
    ini.write_text(f"[corpus]\nsource = {path}\n[run]\nseed = 1\nout = {tmp_path / 'runs'}\n",
                   encoding="utf-8")
    assert main(["--config", str(ini), "ingest"]) == 3
    assert f"{path}, line {line}: {reason}" in capsys.readouterr().err


def test_rescan_names_the_line_of_a_field_csv_cannot_split(tmp_path):
    data, line, reason = UNREADABLE["oversized-plain-field"]
    path = tmp_path / "bad.csv"
    with pytest.raises(DataError, match=rf"bad\.csv, line {line}: {reason}"):
        ingest._read_rows(path, data.decode("utf-8"))


ONE_READ = {  # (the file's bytes, the error parse_corpus raises or None)
    "plain-bad-last-cell": (H + b"A,Apple Watch,0,60,Rest\nA,Apple Watch,1,61,Nap\n",
                            r"line 3: unknown activity label 'Nap'$"),
    "quoted": (H + b'"A",Apple Watch,0,60,Rest\n"A",Apple Watch,1,61,Rest\n', None),
    "non-utf8": (H + b"A,Apple Watch,0,60,Rest\nA,Apple Watch,1,6\xff,Rest\n",
                 r"line 3: byte 0xff is not UTF-8$"),
}


@pytest.mark.parametrize("case", sorted(ONE_READ))
def test_parse_corpus_opens_each_csv_once(tmp_path, monkeypatch, case):
    data, error = ONE_READ[case]
    path = tmp_path / "one.csv"
    path.write_bytes(data)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    if error is None:
        (series,) = parse_corpus(path)
        assert len(series) == 2
    else:
        with pytest.raises(DataError, match=error):
            parse_corpus(path)
    assert [Path(f).name for f in opened] == ["one.csv"]


# -- the split path: files csv.reader would cut at every comma and line end ----

@pytest.fixture(scope="module")
def generated_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("generated")
    assert main(["--seed", "7", "--out", str(out), "generate", "--subjects", "60",
                 "--groups", "3"]) == 0
    (run_dir,) = [p for p in out.iterdir() if p.is_dir() and not p.name.startswith(".")]
    return run_dir / "corpus"


def read_text(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def test_generated_files_take_the_split_path_and_hold_one_series(generated_corpus_dir):
    files = sorted(generated_corpus_dir.glob("*.csv"))
    assert len(files) == 60
    for path in files:
        header, cells = ingest._split_plain(read_text(path))
        width, (si, di, *_) = ingest._column_index(header, path)
        assert len(set(cells[si::width])) == 1 and len(set(cells[di::width])) == 1, path.name


def test_a_subject_id_that_needs_quoting_takes_csv_reader_and_round_trips(tmp_path):
    rng = np.random.default_rng(4)
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, 39))])  # parsed series start at 0
    series = SubjectSeries("a,b", "Apple Watch", t, rng.uniform(40.0, 200.0, 40),
                           rng.integers(0, 5, 40))
    (path,) = serialize_corpus([series], tmp_path)
    assert ingest._split_plain(read_text(path)) is None
    (back,) = parse_corpus(path)
    assert (back.subject_id, back.device_id) == ("a,b", "Apple Watch")
    assert back.timestamps.tobytes() == series.timestamps.tobytes()
    assert back.bpm.tobytes() == series.bpm.tobytes()
    assert back.labels.tolist() == series.labels.tolist()


def test_split_path_parses_a_generated_corpus_like_csv_reader(generated_corpus_dir, monkeypatch):
    split = parse_corpus(generated_corpus_dir, device_filter=None)
    monkeypatch.setattr(ingest, "_split_plain", lambda text: None)
    read = parse_corpus(generated_corpus_dir, device_filter=None)
    assert len(split) == len(read) == 60
    for a, b in zip(split, read):
        assert (a.subject_id, a.device_id) == (b.subject_id, b.device_id)
        assert a.timestamps.tobytes() == b.timestamps.tobytes()
        assert a.bpm.tobytes() == b.bpm.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
