"""Property tests of the CSV corpus reader and writer.

A mutated corpus file must end in a clean exit code, never a traceback, and
any finite series, resampled or not, must survive a serialize/parse round
trip bit for bit. The reader's split path must cut every text it accepts
into csv.reader's cells, and any valid corpus that csv.writer writes, with
any quoting, line end and blank lines, must parse like the DictReader
reference.
Examples are derandomized and no example database is kept, so every run
tries the same inputs.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import parse_corpus_reference

from hractivity import ingest
from hractivity.cli import main
from hractivity.ingest import parse_corpus, resample_uniform, serialize_corpus
from hractivity.series import LABEL_NAMES, SubjectSeries

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def valid_corpus_bytes() -> bytes:
    """One small, valid corpus file: 24 one-second samples with a label change."""
    rng = np.random.default_rng(3)
    series = SubjectSeries("S1", "Apple Watch", np.arange(24.0), rng.uniform(55.0, 95.0, 24),
                           np.repeat([0, 2, 4], 8))
    with tempfile.TemporaryDirectory() as folder:
        (path,) = serialize_corpus([series], folder)
        return path.read_bytes()


VALID = valid_corpus_bytes()
INSERTS = [b'"', b",", b"\r", b"\x00", b"\xff"]

positions = st.integers(min_value=0, max_value=len(VALID))
mutation = st.one_of(
    st.tuples(st.just("flip"), positions, st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("delete"), positions, st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("truncate"), positions, st.just(0)),
    st.tuples(st.just("insert"), positions, st.integers(min_value=0, max_value=len(INSERTS) - 1)),
)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, pos, arg in edits:
        pos = min(pos, len(buf))
        if kind == "flip" and pos < len(buf):
            buf[pos] ^= 1 << arg  # one bit of one byte
        elif kind == "delete":
            del buf[pos : pos + arg]
        elif kind == "truncate":
            del buf[pos:]
        elif kind == "insert":
            buf[pos:pos] = INSERTS[arg]
    return bytes(buf)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(edits=st.lists(mutation, min_size=1, max_size=3))
def test_mutated_corpus_ingest_exits_cleanly(edits):
    with tempfile.TemporaryDirectory() as folder:
        root = Path(folder)
        (root / "corpus.csv").write_bytes(mutate(VALID, edits))
        (root / "ingest.ini").write_text(
            f"[corpus]\nsource = {root / 'corpus.csv'}\nresample_period_s = 1.0\n"
            f"[run]\nseed = 1\nout = {root / 'runs'}\n", encoding="utf-8")
        assert main(["--config", str(root / "ingest.ini"), "ingest"]) in (0, 2, 3)


@st.composite
def finite_series(draw, max_step=1e6):
    n = draw(st.integers(min_value=1, max_value=40))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=max_step), min_size=n - 1,
                          max_size=n - 1))
    timestamps = np.concatenate([[0.0], np.cumsum(steps)])
    bpm = draw(st.lists(st.floats(min_value=20.0, max_value=250.0, exclude_min=True,
                                  exclude_max=True), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n))
    return timestamps, np.asarray(bpm), np.asarray(labels)


subject_ids = st.text(alphabet='AZaz09 ,"-', min_size=1, max_size=8)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(ids=st.lists(subject_ids, min_size=1, max_size=3, unique=True),
       device=st.text(alphabet='Wach ,"', max_size=6), data=st.data())
def test_serialize_then_parse_is_bit_exact(ids, device, data):
    corpus = [SubjectSeries(subject, device, *data.draw(finite_series())) for subject in ids]
    with tempfile.TemporaryDirectory() as folder:
        serialize_corpus(corpus, folder)
        back = parse_corpus(folder, device_filter=None)
    corpus.sort(key=lambda s: s.subject_id)
    assert [s.subject_id for s in back] == [s.subject_id for s in corpus]
    for got, sent in zip(back, corpus):
        assert got.device_id == device
        assert got.timestamps.tobytes() == sent.timestamps.tobytes()
        assert got.bpm.tobytes() == sent.bpm.tobytes()
        assert got.labels.tolist() == sent.labels.tolist()


# steps of at most 50 s on a period of at least 0.25 s: at most 7,801 grid points;
# the series start at t=0, where parse_corpus puts every series
@settings(PROPERTY_SETTINGS, max_examples=100)
@given(subject=subject_ids, raw=finite_series(max_step=50.0),
       period=st.floats(min_value=0.25, max_value=5.0))
def test_resample_then_serialize_then_parse_is_bit_exact(subject, raw, period):
    resampled, _ = resample_uniform(SubjectSeries(subject, "W", *raw), period)
    with tempfile.TemporaryDirectory() as folder:
        serialize_corpus([resampled], folder)
        (back,) = parse_corpus(folder, device_filter=None)
    assert back.subject_id == subject
    assert back.timestamps.tobytes() == resampled.timestamps.tobytes()
    assert back.bpm.tobytes() == resampled.bpm.tobytes()
    assert back.labels.tolist() == resampled.labels.tolist()


SPLIT_ALPHABET = 'a1,"\r\n\0 '
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


def joined(rows, end, last):
    return end.join(rows) + last


#: any text over the alphabet; lines joined by one line end; and tables of one width, with
#: blank rows, which the split path takes when their cells hold no quote, NUL, CR or LF
split_texts = st.one_of(
    st.text(alphabet=SPLIT_ALPHABET, max_size=30),
    st.builds(joined, st.lists(st.text(alphabet='a1, "\0', max_size=8), min_size=1, max_size=6),
              line_ends, st.sampled_from(["", "\n", "\r\n"])),
    st.integers(min_value=1, max_value=4).flatmap(lambda width: st.builds(
        joined,
        st.lists(st.one_of(st.just(""), st.lists(st.text(alphabet="a1 ", max_size=3),
                                                  min_size=width, max_size=width).map(",".join)),
                 min_size=1, max_size=6),
        line_ends, st.sampled_from(["", "\n", "\r\n"]))),
)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(text=split_texts)
def test_split_path_cuts_like_csv_reader(text):
    split = ingest._split_plain(text)
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, [])
        rows = [row for row in reader if row]
    except csv.Error:
        assert split is None
        return
    if split is not None:
        assert split == (header, [cell for row in rows for cell in row])
        assert all(len(row) == len(header) for row in rows)


#: id cells that csv.writer quotes (comma, quote) or that keep an edge (space, empty); no
#: CR or LF, which the writer leaves unquoted under some line ends
corpus_ids = st.text(alphabet='Ab1 ,"', max_size=4)
corpus_rows = st.tuples(st.floats(min_value=20.0, max_value=250.0, exclude_min=True,
                                  exclude_max=True),
                        st.sampled_from(LABEL_NAMES), st.integers(min_value=0, max_value=3))


@st.composite
def written_corpus(draw):
    """The texts of one to three valid corpus files, each written by csv.writer with its own
    column order, quoting and line end, and blank lines between rows. Timestamps are
    unique, so no rows collapse."""
    keys = draw(st.lists(st.tuples(corpus_ids, corpus_ids), min_size=1, max_size=3))
    # multiples of 1/8, whose differences are exact: distinct times stay distinct at t - t[0]
    times = draw(st.lists(st.integers(min_value=-10**9, max_value=10**9).map(lambda i: i / 8),
                          max_size=40, unique=True))
    rows = draw(st.lists(corpus_rows, min_size=len(times), max_size=len(times)))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(times)), max_size=2)))
    texts = []
    for lo, hi in zip([0, *cuts], [*cuts, len(times)]):
        columns = draw(st.permutations(ingest.COLUMNS))
        out = io.StringIO()
        writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
                            lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
        writer.writerow(columns)
        for t, (bpm, label, key) in zip(times[lo:hi], rows[lo:hi]):
            if draw(st.integers(min_value=0, max_value=4)) == 0:
                writer.writerow([])  # a blank line
            subject, device = keys[key % len(keys)]
            cells = {"subject_id": subject, "device": device, "timestamp": repr(t),
                     "bpm": repr(bpm), "label": label}
            writer.writerow([cells[name] for name in columns])
        texts.append(out.getvalue())
    return texts


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(texts=written_corpus())
def test_written_corpus_parses_like_the_reference(texts):
    with tempfile.TemporaryDirectory() as folder:
        for i, text in enumerate(texts):
            (Path(folder) / f"f{i}.csv").write_bytes(text.encode("utf-8"))
        expected = parse_corpus_reference(folder, device_filter=None)
        corpus = parse_corpus(folder, device_filter=None)
    assert [(s.subject_id, s.device_id) for s in corpus] == [e[:2] for e in expected]
    for series, (_, _, ts, bpm, labels) in zip(corpus, expected):
        assert series.timestamps.tobytes() == ts.astype(np.float64).tobytes()
        assert series.bpm.tobytes() == bpm.astype(np.float64).tobytes()
        assert series.labels.tolist() == labels.tolist()
