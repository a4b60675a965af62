"""The lean record read: annotation arrays, one decoded signal, and
read_beats and ingest against the whole-record composition they replaced."""

import re

import numpy as np
import pytest

import annotation_oracle
from ecgarr import wfdb_io
from ecgarr.cli import main
from ecgarr.experiment import read_beats
from ecgarr.wfdb_io import (
    AnnotationError,
    BeatLabel,
    Format212Error,
    HeaderError,
    annotation_arrays,
    decode_format212,
    ingest_record,
    label_beat,
    parse_annotations,
    read_header,
    read_record,
)
from wfdb_fixtures import (
    SYMBOL_CODES,
    classifier_record,
    dropout_record,
    encode_format212,
    write_annotations,
    write_header,
    write_record_files,
)

# ---------------------------------------------------------------------------
# annotation parse against the per-word oracle


def _word(code, delta):
    return bytes([delta & 0xFF, (code << 2) | (delta >> 8)])


def _payload_word(rng):
    """A payload word that is zero, or looks like a long-offset or aux
    word, or is random."""
    kind = int(rng.integers(4))
    if kind == 0:
        return 0
    if kind == 3:
        return int(rng.integers(1 << 16))
    return ((59, 63)[kind - 1] << 10) | int(rng.integers(1024))


def _random_stream(rng):
    out = bytearray()
    for _ in range(int(rng.integers(0, 25))):
        kind = int(rng.integers(10))
        if kind == 0:  # long offset, often negative, payload words odd-looking
            if rng.random() < 0.5:
                span = int(rng.choice([3, 3000]))
                value = int(rng.integers(-span, span)) & 0xFFFFFFFF
                high, low = value >> 16, value & 0xFFFF
            else:
                high, low = _payload_word(rng), _payload_word(rng)
            out += _word(59, int(rng.integers(1024)))
            out += bytes([high & 0xFF, high >> 8, low & 0xFF, low >> 8])
        elif kind == 1:  # aux field, odd or even length, padded to even
            size = int(rng.integers(0, 9))
            body = b"".join(_payload_word(rng).to_bytes(2, "little")
                            for _ in range((size + 1) // 2))
            out += _word(63, size) + body
        elif kind == 2:  # NUM, SUB or CHAN
            out += _word(int(rng.integers(60, 63)), int(rng.integers(1024)))
        elif kind == 3:  # code 0 or an unassigned code 42..58
            code = int(rng.choice([0, *range(42, 59)]))
            out += _word(code, int(rng.integers(1 if code == 0 else 0, 1024)))
        else:
            out += _word(int(rng.integers(1, 42)), int(rng.choice([rng.integers(3),
                                                                   rng.integers(1024)])))
    out += bytes(2)  # terminator
    out += rng.integers(256, size=int(rng.integers(0, 4)), dtype=np.uint8).tobytes()
    return bytes(out)


def _outcome(parse, data, n_samples):
    try:
        return [tuple(row) for row in parse(data, n_samples)]
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _arrays(data, n_samples):
    index, codes = annotation_arrays(data, n_samples)
    assert index.dtype == codes.dtype == np.int64
    return zip(index.tolist(), codes.tolist())


def _objects(data, n_samples):
    return [(a.sample_index, a.code) for a in parse_annotations(data, n_samples)]


OUTCOMES = ("rows", "is negative", "decreased", "past record end", "no terminator",
            "long-offset word", "aux field")


def test_annotation_arrays_match_the_per_word_oracle_at_every_truncation():
    rng = np.random.default_rng(26)
    seen = set()
    for _ in range(150):
        data = _random_stream(rng)
        for n_samples in (None, int(rng.integers(1, 20_000))):
            for end in range(len(data) + 1):
                want = _outcome(annotation_oracle.parse_annotations, data[:end], n_samples)
                assert _outcome(_arrays, data[:end], n_samples) == want, (data[:end], n_samples)
                text = want[1] if isinstance(want, tuple) else "rows"
                seen.update(kind for kind in OUTCOMES if kind in text)
    assert seen == set(OUTCOMES)  # the streams reach every outcome of the parser


def test_annotation_objects_match_the_oracle_on_written_streams():
    rng = np.random.default_rng(5)
    symbols = sorted(SYMBOL_CODES)
    for _ in range(40):
        idx = np.cumsum(rng.integers(0, 3000, size=int(rng.integers(0, 50))))
        data = write_annotations([(int(i), symbols[int(rng.integers(len(symbols)))])
                                  for i in idx])
        want = annotation_oracle.parse_annotations(data)
        assert _objects(data, None) == want
        assert list(_arrays(data, None)) == want


# ---------------------------------------------------------------------------
# one signal decoded


def _write_record(tmp_path, layout, n):
    """A record whose signals sit in the files layout names (one name per
    signal, repeated names interleave); returns its header and values."""
    rng = np.random.default_rng([len(layout), n])
    values = rng.integers(-2048, 2048, size=(len(layout), n))
    (tmp_path / "r.hea").write_text(write_header("r", 360, n, list(layout)))
    for name in dict.fromkeys(layout):
        held = [i for i, f in enumerate(layout) if f == name]
        flat = values[held].T.reshape(-1).tolist()
        (tmp_path / name).write_bytes(encode_format212(flat))
    return tmp_path / "r.hea", values


LAYOUTS = (["r.dat"], ["r.dat"] * 2, ["r.dat"] * 3, ["a.dat", "b.dat"],
           ["a.dat", "b.dat", "a.dat"])


@pytest.mark.parametrize("n", [0, 1, 6, 7])
@pytest.mark.parametrize("layout", LAYOUTS, ids="-".join)
def test_one_decoded_signal_equals_the_whole_record(tmp_path, layout, n):
    header, values = _write_record(tmp_path, layout, n)
    record = ingest_record(header)
    assert record.samples.tolist() == values.tolist()
    for i in range(len(layout)):
        signal = read_beats(header, i, "ann")[1]
        assert signal.dtype == np.float64
        assert signal.tobytes() == record.samples[i].astype(np.float64).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_decode_format212_one_signal_of_k(k):
    rng = np.random.default_rng(k)
    for n in (0, 1, 2, 5, 8):
        values = rng.integers(-2048, 2048, size=(n, k))
        packed = encode_format212(values.reshape(-1).tolist())
        flat = decode_format212(packed, n * k)
        assert flat.tolist() == values.reshape(-1).tolist()
        for i in range(k):
            assert decode_format212(packed, n, k, i).tolist() == values[:, i].tolist()
        for bad in (-1, k):
            with pytest.raises(ValueError, match=rf"^signal {bad} out of range \({k} signals\)$"):
                decode_format212(packed, n, k, bad)


# ---------------------------------------------------------------------------
# a sample file that is not decoded is still checked


@pytest.fixture
def split_record(tmp_path):
    """dropout_record's signal twice, in two files; the second truncated."""
    header = dropout_record(tmp_path, "s")
    n = len(ingest_record(header).samples[0])
    (tmp_path / "s.hea").write_text(write_header("s", 500, n, ["s.dat", "s_b.dat"]))
    packed = (tmp_path / "s.dat").read_bytes()
    (tmp_path / "s_b.dat").write_bytes(packed[:-5])
    return header, f"error: {tmp_path / 's_b.dat'}: buffer truncated at byte " \
                   f"{len(packed) - 5}: {n} samples need {len(packed)} bytes\n"


def _evaluate(header, channel, tmp_path, capsys):
    capsys.readouterr()
    rc = main(["evaluate", "--record", str(header), "--classifier", "self-learner",
               "--detector", "ann", "--channel", str(channel),
               "--out-dir", str(tmp_path / f"out{channel}")])
    return rc, capsys.readouterr().err


def test_truncated_file_of_another_channel_fails_evaluate(split_record, tmp_path, capsys):
    header, line = split_record
    assert _evaluate(header, 0, tmp_path, capsys) == (1, line)


def test_truncation_wins_over_an_out_of_range_channel(split_record, tmp_path, capsys):
    header, line = split_record
    assert _evaluate(header, 2, tmp_path, capsys) == (1, line)
    (tmp_path / "s_b.dat").write_bytes((tmp_path / "s.dat").read_bytes())
    assert _evaluate(header, 2, tmp_path, capsys) == (
        1, "error: record s: channel 2 out of range (2 signals)\n")


def test_read_record_checks_the_channel_after_every_sample_file(split_record, tmp_path):
    # a wanted index outside the header's signals once gave no series, silently
    header, line = split_record
    with pytest.raises(Format212Error, match=re.escape(line[len("error: "):-1])):
        read_record(header, {2})
    (tmp_path / "s_b.dat").write_bytes((tmp_path / "s.dat").read_bytes())
    for channel in (2, -1):
        with pytest.raises(ValueError, match=rf"^record s: channel {channel} out of range "
                                             r"\(2 signals\)$"):
            read_record(header, {0, channel})
    assert list(read_record(header, {1})[1]) == [1]


# ---------------------------------------------------------------------------
# a fault in a record file names the file


def _bad_gain(dir_path, name):
    path = dir_path / f"{name}.hea"
    path.write_text(path.read_text().replace(" 212 200 ", " 212 2x0 "))
    return HeaderError, path, "line 2: gain '2x0' is not a finite number"


def _truncated_samples(dir_path, name):
    n = read_header(dir_path / f"{name}.hea").n_samples
    path = dir_path / f"{name}.dat"
    path.write_bytes(path.read_bytes()[:100])
    return Format212Error, path, f"buffer truncated at byte 100: {n} samples need " \
                                 f"{(3 * n + 1) // 2} bytes"


def _no_terminator(dir_path, name):
    path = dir_path / f"{name}.atr"
    path.write_bytes(path.read_bytes()[:-2])
    return AnnotationError, path, f"annotation stream truncated at byte " \
                                  f"{path.stat().st_size}: no terminator word"


@pytest.mark.parametrize("fault", [_bad_gain, _truncated_samples, _no_terminator],
                         ids=lambda f: f.__name__.strip("_"))
def test_a_fault_in_a_record_file_names_the_file(tmp_path, capsys, fault):
    # a two-record run once printed the fault alone, with no file to find it in
    good = classifier_record(tmp_path, "recA", seed=0)
    bad = classifier_record(tmp_path, "recB", seed=1)
    kind, path, message = fault(tmp_path, "recB")
    with pytest.raises(kind, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_record(bad)
    capsys.readouterr()
    assert main(["evaluate", "--record", good, "--record", bad, "--classifier", "self-learner",
                 "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


# ---------------------------------------------------------------------------
# read_beats against the whole-record composition


def _whole_record_beats(header, channel):
    """The earlier read: ingest every channel and annotation object, then
    take one channel and label each annotated beat."""
    record = ingest_record(header)
    if not 0 <= channel < record.header.n_signals:
        raise ValueError(f"record {record.header.record_name}: channel {channel} "
                         f"out of range ({record.header.n_signals} signals)")
    signal = record.samples[channel].astype(np.float64)
    beats = [a for a in record.annotations if a.is_beat]
    return (record.header.record_name, signal, record.header.sampling_frequency,
            np.array([a.sample_index for a in beats], dtype=np.int64),
            np.array([0 if label_beat(a.symbol) is BeatLabel.NORMAL else 1 for a in beats],
                     dtype=np.int64))


def _every_symbol_record(dir_path, name):
    rng = np.random.default_rng(3)
    symbols = sorted(SYMBOL_CODES)
    entries = [(40 * k + 7, symbols[k % len(symbols)]) for k in range(3 * len(symbols))]
    n = entries[-1][0] + 50
    return write_record_files(dir_path, name, 250, rng.integers(-2048, 2048, n).tolist(),
                              entries, channel1=rng.integers(-2048, 2048, n).tolist())


def _no_annotation_record(dir_path, name):
    return write_record_files(dir_path, name, 360, list(range(-300, 300)))


@pytest.mark.parametrize("make", [classifier_record, dropout_record, _every_symbol_record,
                                  _no_annotation_record])
def test_read_beats_equals_the_whole_record_composition(tmp_path, make):
    header = make(tmp_path, "rec")
    n_signals = ingest_record(header).header.n_signals
    for channel in range(n_signals + 1):
        try:
            want = _whole_record_beats(header, channel)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                read_beats(header, channel, "ann")
            continue
        record_id, signal, fs, peaks, ann_idx, ann_lab = read_beats(header, channel, "ann")
        assert (record_id, fs) == (want[0], want[2])
        for mine, theirs in ((signal, want[1]), (peaks, want[3]), (ann_idx, want[3]),
                             (ann_lab, want[4])):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------------
# ingest against the whole-record composition


def _unknown_code_record(dir_path, name):
    """Two channels in two files, and annotation codes 15 and 58, which
    name no symbol, between beats."""
    header = write_record_files(dir_path, name, 360, list(range(-100, 100)))
    (dir_path / f"{name}_b.dat").write_bytes(encode_format212(range(100, -100, -1)))
    (dir_path / f"{name}.hea").write_text(write_header(name, 360, 200,
                                                       [f"{name}.dat", f"{name}_b.dat"]))
    (dir_path / f"{name}.atr").write_bytes(_word(1, 20) + _word(15, 30) + _word(5, 40)
                                           + _word(58, 10) + b"\0\0")
    return header


@pytest.mark.parametrize("make", [_every_symbol_record, _unknown_code_record,
                                  _no_annotation_record])
def test_ingest_writes_the_whole_record_text(tmp_path, make, monkeypatch, capsys):
    # ingest once wrote these bytes from ingest_record's EcgRecord; now it
    # decodes only the channel it writes
    header = make(tmp_path, "rec")
    record = ingest_record(header)
    decoded, decode = [], wfdb_io.decode_format212
    monkeypatch.setattr(wfdb_io, "decode_format212",
                        lambda *args: decoded.append(args) or decode(*args))
    for channel in range(record.header.n_signals + 1):
        decoded.clear()
        capsys.readouterr()
        out = tmp_path / f"out{channel}"
        rc = main(["ingest", "--record", str(header), "--channel", str(channel),
                   "--out-dir", str(out)])
        if channel == record.header.n_signals:
            assert rc == 1 and capsys.readouterr().err == (
                f"error: record rec: channel {channel} out of range "
                f"({record.header.n_signals} signals)\n")
            continue
        assert rc == 0 and len(decoded) == 1
        assert (out / "rec-signal.txt").read_text() == "".join(
            f"{v}\n" for v in record.samples[channel].tolist())
        assert (out / "rec-annotations.txt").read_text() == "".join(
            f"{line}\n" for line in ["sample_index,symbol", *(
                f"{a.sample_index},{a.symbol}" for a in record.annotations)])
        assert capsys.readouterr().out == (
            f"rec: {record.samples.shape[1]} samples, {len(record.annotations)} annotations\n")
    if make is _unknown_code_record:
        assert (tmp_path / "out0" / "rec-annotations.txt").read_text() == \
            "sample_index,symbol\n20,N\n50,None\n90,V\n100,None\n"
