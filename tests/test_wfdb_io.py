"""Record reader tests, all against independently written fixtures."""

import numpy as np
import pytest

from ecgarr.wfdb_io import (
    Annotation,
    AnnotationError,
    BeatLabel,
    BEAT_SYMBOLS,
    Format212Error,
    FormatUnsupportedError,
    HeaderError,
    RecordHeader,
    decode_format212,
    ingest_record,
    label_beat,
    parse_annotations,
    parse_header,
)

from wfdb_fixtures import (
    SYMBOL_CODES,
    encode_format212,
    write_annotations,
    write_header,
    write_record_files,
)


# ---------------------------------------------------------------------------
# header


def test_parse_header_basic():
    text = write_header("rec1", 360, 650000, ["rec1.dat", "rec1.dat"])
    hdr = parse_header(text)
    assert hdr.record_name == "rec1"
    assert hdr.n_signals == 2
    assert hdr.sampling_frequency == 360.0
    assert hdr.n_samples == 650000
    assert len(hdr.signals) == 2
    assert all(s.fmt == 212 for s in hdr.signals)
    assert hdr.signals[0].file_name == "rec1.dat"
    assert hdr.signals[0].gain == 200.0
    with pytest.raises(HeaderError, match="^line 2: adc zero '1O24' is not an integer$"):
        parse_header(text.replace(" 1024 ", " 1O24 ", 1))


def test_parse_header_accepts_bytes():
    text = write_header("r", 500, 10, ["r.dat"]).encode("ascii")
    assert parse_header(text).sampling_frequency == 500.0


def test_parse_header_gain_with_baseline_and_units():
    text = "x 1 250 100\nx.dat 212 200(512)/mV 11 0 0 0 0 lead\n"
    hdr = parse_header(text)
    assert hdr.signals[0].gain == 200.0
    with pytest.raises(HeaderError,
                       match="^line 2: baseline in gain field '5x2' is not an integer$"):
        parse_header(text.replace("(512)", "(5x2)"))


def test_parse_header_counter_frequency_suffix():
    text = "x 1 360/360 100\nx.dat 212 200 11 0 0 0 0\n"
    assert parse_header(text).sampling_frequency == 360.0


def test_parse_header_skips_comments_and_blank_lines():
    text = "# comment\n\nx 1 250 100\n# another\nx.dat 212 200 11 0 0 0 0\n"
    assert parse_header(text).n_signals == 1


def test_parse_header_unsupported_format():
    text = "x 1 360 100\nx.dat 16 200 11 0 0 0 0\n"
    with pytest.raises(FormatUnsupportedError):
        parse_header(text)


def test_parse_header_empty():
    with pytest.raises(HeaderError):
        parse_header("")


def test_parse_header_errors_carry_line_numbers():
    with pytest.raises(HeaderError, match="line 1"):
        parse_header("x notanint 360 100\nx.dat 212\n")
    with pytest.raises(HeaderError, match="line 2"):
        parse_header("x 1 360 100\nx.dat badformat 200\n")


def test_parse_header_too_few_signal_lines():
    with pytest.raises(HeaderError):
        parse_header("x 2 360 100\nx.dat 212 200 11 0 0 0 0\n")


@pytest.mark.parametrize("rate", ["inf", "1e400", "nan", "-inf"])
def test_parse_header_rejects_a_rate_that_is_not_finite(rate):
    # 1e400 overflows to inf; NaN was caught only by RecordHeader, with no line
    with pytest.raises(HeaderError, match=f"^line 1: sampling frequency '{rate}' "
                                          "is not a finite number$"):
        parse_header(f"x 1 {rate} 100\nx.dat 212\n")
    with pytest.raises(HeaderError, match="^sampling frequency must be positive and finite"):
        RecordHeader("x", 1, float(rate), 100)


def test_parse_header_rejects_bad_numbers():
    with pytest.raises(HeaderError):
        parse_header("x 0 360 100\n")
    with pytest.raises(HeaderError):
        parse_header("x 1 -5 100\nx.dat 212\n")
    with pytest.raises(HeaderError):
        parse_header(b"\xff\xfe binary junk")


# ---------------------------------------------------------------------------
# format 212


def test_decode_known_triplets():
    assert decode_format212(bytes([0x00, 0x00, 0x00]), 2).tolist() == [0, 0]
    assert decode_format212(bytes([0x64, 0x00, 0x00]), 2).tolist() == [100, 0]
    assert decode_format212(bytes([0xFF, 0x0F, 0x00]), 2).tolist() == [-1, 0]


def test_decode_sign_extension_extremes():
    packed = encode_format212([-2048, 2047])
    assert decode_format212(packed, 2).tolist() == [-2048, 2047]


def test_decode_odd_sample_count():
    packed = encode_format212([7, -9, 55])
    assert decode_format212(packed, 3).tolist() == [7, -9, 55]


def test_decode_empty():
    assert decode_format212(b"", 0).size == 0


def test_decode_truncated_buffer():
    with pytest.raises(Format212Error, match="byte 2"):
        decode_format212(b"\x00\x00", 2)
    with pytest.raises(Format212Error):
        decode_format212(b"\x00", 1)


def test_round_trip_values_then_bytes():
    rng = np.random.default_rng(212)
    vals = rng.integers(-2048, 2048, size=10_000).tolist()
    packed = encode_format212(vals)
    flat = decode_format212(packed, len(vals))
    assert flat.tolist() == vals
    assert np.all(flat >= -2048) and np.all(flat <= 2047)


def test_round_trip_bytes_then_values():
    # decode followed by re-encode must reproduce any 3-byte-aligned buffer
    rng = np.random.default_rng(99)
    raw = bytes(rng.integers(0, 256, size=3 * 500, dtype=np.uint8))
    flat = decode_format212(raw, 1000)
    assert encode_format212(flat.tolist()) == raw


# ---------------------------------------------------------------------------
# annotations


def test_annotations_terminator_only():
    assert parse_annotations(write_annotations([])) == []


def test_annotations_two_beats():
    data = write_annotations([(100, "N"), (245, "V")])
    anns = parse_annotations(data)
    assert [(a.sample_index, a.symbol) for a in anns] == [(100, "N"), (245, "V")]
    assert all(a.is_beat for a in anns)


def test_annotations_long_gap_uses_skip_word():
    data = write_annotations([(5, "N"), (70_000, "V"), (70_100, "N")])
    anns = parse_annotations(data)
    assert [a.sample_index for a in anns] == [5, 70_000, 70_100]


def test_annotations_ignore_num_sub_chan_words():
    body = bytearray(write_annotations([(50, "N")]))
    # splice a SUB word (code 61) and a CHAN word (code 62) before terminator
    extra = bytes([3, 61 << 2, 1, 62 << 2])
    data = bytes(body[:-2]) + extra + bytes([0, 0])
    anns = parse_annotations(data)
    assert [a.sample_index for a in anns] == [50]


def test_annotations_aux_field_padded_to_even():
    for text_len in (3, 4):
        aux = bytes([text_len, 63 << 2]) + b"x" * (text_len + (text_len & 1))
        data = write_annotations([(10, "N")])[:-2] + aux + bytes([0, 0])
        anns = parse_annotations(data)
        assert [a.sample_index for a in anns] == [10]


def test_annotations_decreasing_index_errors():
    # hand-build: N at 100, then a word whose delta would go backwards
    # cannot be expressed with unsigned deltas, so use a negative skip
    first = write_annotations([(100, "N")])[:-2]
    neg = (-50) & 0xFFFFFFFF
    skip = bytes([0, 59 << 2, (neg >> 16) & 0xFF, (neg >> 24) & 0xFF,
                  neg & 0xFF, (neg >> 8) & 0xFF])
    beat = bytes([0, SYMBOL_CODES["V"] << 2])
    with pytest.raises(AnnotationError, match="decreased"):
        parse_annotations(first + skip + beat + bytes([0, 0]))


def test_annotations_equal_index_tolerated():
    first = write_annotations([(100, "N")])[:-2]
    again = bytes([0, SYMBOL_CODES["+"] << 2])  # delta 0, same sample
    anns = parse_annotations(first + again + bytes([0, 0]))
    assert [a.sample_index for a in anns] == [100, 100]


def test_annotations_missing_terminator():
    data = write_annotations([(100, "N")])[:-2]
    with pytest.raises(AnnotationError, match="truncated"):
        parse_annotations(data)


def test_annotations_index_past_record_end():
    data = write_annotations([(100, "N")])
    with pytest.raises(AnnotationError, match="past record end"):
        parse_annotations(data, n_samples=100)
    assert parse_annotations(data, n_samples=101)[0].sample_index == 100


def test_annotations_negative_index_errors():
    neg = (-5) & 0xFFFFFFFF
    skip = bytes([0, 59 << 2, (neg >> 16) & 0xFF, (neg >> 24) & 0xFF,
                  neg & 0xFF, (neg >> 8) & 0xFF])
    beat = bytes([0, SYMBOL_CODES["N"] << 2])
    with pytest.raises(AnnotationError, match="negative"):
        parse_annotations(skip + beat + bytes([0, 0]))


def test_annotation_writer_reader_identity_randomized():
    rng = np.random.default_rng(7)
    symbols = sorted(SYMBOL_CODES)
    for _ in range(50):
        n = int(rng.integers(0, 60))
        gaps = rng.integers(0, 3000, size=n)
        idx = np.cumsum(gaps)
        entries = [(int(i), symbols[int(rng.integers(len(symbols)))]) for i in idx]
        anns = parse_annotations(write_annotations(entries))
        assert [(a.sample_index, a.symbol) for a in anns] == entries


# ---------------------------------------------------------------------------
# labels


def test_label_beat_mapping():
    assert label_beat("N") is BeatLabel.NORMAL
    assert label_beat("V") is BeatLabel.ARRHYTHMIA
    assert label_beat("+") is BeatLabel.IGNORE
    assert label_beat("~") is BeatLabel.IGNORE
    assert label_beat("Z") is BeatLabel.IGNORE  # unknown symbols are ignored
    for sym in BEAT_SYMBOLS - {"N"}:
        assert label_beat(sym) is BeatLabel.ARRHYTHMIA


def test_non_beat_annotations_retained_but_flagged():
    data = write_annotations([(10, "N"), (20, "+"), (30, "V")])
    anns = parse_annotations(data)
    assert [a.is_beat for a in anns] == [True, False, True]


# ---------------------------------------------------------------------------
# whole-record ingest


def test_ingest_two_channel_record(tmp_path):
    rng = np.random.default_rng(3)
    ch0 = rng.integers(-2048, 2048, size=501).tolist()
    ch1 = rng.integers(-2048, 2048, size=501).tolist()
    hdr = write_record_files(tmp_path, "r01", 360, ch0,
                             annotations=[(100, "N"), (300, "V")],
                             channel1=ch1)
    rec = ingest_record(hdr)
    assert rec.samples.shape == (2, 501)
    assert rec.samples.dtype == np.int32
    assert rec.samples[0].tolist() == ch0
    assert rec.samples[1].tolist() == ch1
    assert [(a.sample_index, a.symbol) for a in rec.annotations] == [(100, "N"), (300, "V")]


def test_ingest_single_channel_record(tmp_path):
    ch0 = list(range(-100, 100))
    hdr = write_record_files(tmp_path, "mono", 500, ch0)
    rec = ingest_record(hdr)
    assert rec.samples.shape == (1, 200)
    assert rec.samples[0].tolist() == ch0
    assert rec.annotations == []  # no .atr written


def test_ingest_signals_in_separate_files(tmp_path):
    ch0 = [1, 2, 3, 4, 5]
    ch1 = [-5, -4, -3, -2, -1]
    (tmp_path / "s.hea").write_text(
        "s 2 360 5\ns_a.dat 212 200 11 0 0 0 0\ns_b.dat 212 200 11 0 0 0 0\n"
    )
    (tmp_path / "s_a.dat").write_bytes(encode_format212(ch0))
    (tmp_path / "s_b.dat").write_bytes(encode_format212(ch1))
    rec = ingest_record(tmp_path / "s.hea")
    assert rec.samples[0].tolist() == ch0
    assert rec.samples[1].tolist() == ch1


def test_annotation_dataclass_is_beat():
    assert Annotation(0, "N", 1).is_beat
    assert not Annotation(0, "+", 28).is_beat
