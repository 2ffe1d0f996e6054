"""Corpus parsing, serialization round-trips and uniform resampling."""

import numpy as np
import pytest

from hractivity.errors import (
    DataError,
    EmptySeries,
    InvalidResamplePeriod,
    MissingColumn,
    NonMonotonicTimestamps,
    OutOfRangeBpm,
    TimestampFormatError,
    UnknownLabel,
)
from hractivity.ingest import (
    CsvSchema,
    parse_corpus,
    resample_uniform,
    serialize_corpus,
    write_gap_report,
)
from hractivity.series import ActivityLabel, SubjectSeries
from hractivity.synthetic import SyntheticCohortSpec, generate_synthetic

HEADER = "subject_id,device,timestamp,bpm,label\n"


def write_csv(tmp_path, rows, name="corpus.csv", header=HEADER):
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
    with pytest.raises(OutOfRangeBpm):
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
    with pytest.raises(NonMonotonicTimestamps):
        parse_corpus(p)


def test_parse_missing_column(tmp_path):
    p = write_csv(tmp_path, ["A,0,60,Rest\n"], header="subject_id,timestamp,bpm,label\n")
    with pytest.raises(MissingColumn):
        parse_corpus(p)


def test_parse_unknown_label(tmp_path):
    p = write_csv(tmp_path, ["A,Apple Watch,0,60,Jog\n"])
    with pytest.raises(UnknownLabel):
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

    everything = parse_corpus(p, CsvSchema(device_filter=None))
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
    with pytest.raises(TimestampFormatError):
        parse_corpus(p)


def test_parse_directory_collects_all_files(tmp_path):
    write_csv(tmp_path, ["A,Apple Watch,0,60,Rest\n"], name="a.csv")
    write_csv(tmp_path, ["B,Apple Watch,0,70,Rest\n"], name="b.csv")
    corpus = parse_corpus(tmp_path)
    assert [s.subject_id for s in corpus] == ["A", "B"]


def test_round_trip_identity(tmp_path):
    spec = SyntheticCohortSpec(n_subjects=4, n_groups=2, seed=7)
    corpus, _ = generate_synthetic(spec)
    schema = CsvSchema(device_filter=None)
    serialize_corpus(corpus, tmp_path / "out", schema)
    back = parse_corpus(tmp_path / "out", schema)
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


def test_resample_label_nearest_ties_to_earlier():
    s = make_series([0.0, 30.0], [60.0, 90.0], labels=[0, 2])
    out, _ = resample_uniform(s, 1.0)
    # t=15 is equidistant from both samples: earlier sample wins
    assert out.labels[14] == 0 and out.labels[15] == 0 and out.labels[16] == 2


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
    assert issubclass(InvalidResamplePeriod, DataError)
    for period in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InvalidResamplePeriod):
            resample_uniform(s, period)
        with pytest.raises(InvalidResamplePeriod):
            resample_uniform(make_series([3.0], [72.0]), period)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_series_rejects_non_finite_timestamps(bad):
    with pytest.raises(DataError, match="finite"):
        make_series([bad], [60.0])
    with pytest.raises(DataError, match="finite"):
        make_series([0.0, bad], [60.0, 61.0])


def test_parse_empty_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(EmptySeries):
        parse_corpus(tmp_path / "empty")
