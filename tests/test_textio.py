"""One number rule for every data file: the rule itself, and each reader
rejecting the same tokens with the same message."""

import re

import numpy as np
import pytest

from ecgarr.experiment import read_beats
from ecgarr.features import (BeatFeatureRow, fit_pca, load_features, load_pca_model,
                             save_features, save_pca_model)
from ecgarr.mlp import init_model, load_model, quantize_model, save_model
from ecgarr.textio import integer, real
from ecgarr.wfdb_io import HeaderError, read_header
from wfdb_fixtures import classifier_record, write_header


def test_the_rule_reads_integers_and_finite_reals():
    assert [integer(t, "x", 1) for t in ("0", "+12", "-007", "-" + "9" * 18)] == \
        [0, 12, -7, -999_999_999_999_999_999]
    assert [real(t, "x", 1) for t in ("2", "-1.5E+3", "1.", ".5", "1e-05")] == \
        [2.0, -1500.0, 1.0, 0.5, 1e-05]
    assert real("-1e308", "x", 1) == -1e308


@pytest.mark.parametrize("token", ["", " 1", "1 ", "+", "1.5", "1e3", "1_0", "٣", "0x10"])
def test_the_rule_rejects_a_token_that_is_no_integer(token):
    with pytest.raises(ValueError, match=f"^{re.escape(f'line 4: count {token!r}')} "
                                         "is not an integer$"):
        integer(token, "count", 4)


@pytest.mark.parametrize("token", ["", ".", "1.2.3", "1e", "1e5.0", "e5", "1_0", "٣",
                                   "nan", "-inf", "1e999", "0x10"])
def test_the_rule_rejects_a_token_that_is_no_finite_real(token):
    with pytest.raises(HeaderError, match=f"^{re.escape(f'line 2: gain {token!r}')} "
                                          "is not a finite number$"):
        real(token, "gain", 2, HeaderError)


def _header(d):
    path = d / "r.hea"
    path.write_text(write_header("r", 360, 1000, ["r.dat"]))
    return path, read_header


def _peaks(d):
    record = classifier_record(d, "rec", seed=0)
    path = d / "peaks.txt"
    path.write_text("150\n450\n750\n")
    return path, lambda p: read_beats(record, 0, "ann", p)


def _features(d):
    path = d / "features.txt"
    save_features(path, [BeatFeatureRow("rec", 100 + i, np.full(12, 0.25), "0")
                         for i in range(3)])
    return path, load_features


def _pca(d):
    path = d / "pca.txt"
    save_pca_model(path, fit_pca(np.random.default_rng(14).standard_normal((30, 7)), k=3))
    return path, load_pca_model


def _real_model(d):
    path = d / "model.txt"
    save_model(path, init_model(seed=0))
    return path, load_model


def _fixed_model(d):
    path = d / "model.txt"
    save_model(path, quantize_model(init_model(seed=0)))
    return path, load_model


# each field a reader converts: the file it sits in, that file's field
# separator, the field's 1-based line and place on it, what the message
# calls it, and whether it is an integer
FIELDS = {
    "header rate": (_header, " ", 1, 2, "sampling frequency", False),
    "header length": (_header, " ", 1, 3, "record length", True),
    "header gain": (_header, " ", 2, 2, "gain", False),
    "peaks line": (_peaks, " ", 2, 0, "peak", True),
    "feature value": (_features, ",", 3, 5, "feature", False),
    "r_index": (_features, ",", 3, 1, "r_index", True),
    "PCA mean value": (_pca, " ", 4, 3, "mean value", False),
    "model weight": (_real_model, " ", 6, 1, "wh value", False),
    "fixed raw": (_fixed_model, " ", 6, 1, "wh value", True),
}
TOKENS = ["1_0", "٣", "nan", "inf", "1e999", "0x10"]


def _rejects(tmp_path, field, token):
    """The file of field loads as written, and fails with the rule's
    message once token replaces the field."""
    make, sep, line, place, what, is_integer = FIELDS[field]
    path, read = make(tmp_path)
    read(path)  # the file as written loads
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(sep)
    fields[place] = token
    lines[line - 1] = sep.join(fields)
    path.write_text("\n".join(lines) + "\n")
    message = (f"line {line}: {what} {token!r} is not "
               f"{'an integer' if is_integer else 'a finite number'}")
    header, end = field.startswith("header"), "$"
    if header and not token.isascii():
        # a header is decoded as ASCII before any number is read
        message, end = "header is not ASCII text: ", ""
    with pytest.raises(HeaderError if header else ValueError,
                       match=f"^{re.escape(f'{path}: {message}')}{end}"):
        read(path)


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("field", FIELDS)
def test_every_reader_rejects_a_token_outside_the_rule(tmp_path, field, token):
    _rejects(tmp_path, field, token)


@pytest.mark.parametrize("digits", [19, 5000])
@pytest.mark.parametrize("field", [f for f in FIELDS if FIELDS[f][5]])
def test_every_integer_field_rejects_19_digits_or_more(tmp_path, field, digits):
    # past int64, and past the 4,300 digits that int() converts at all
    _rejects(tmp_path, field, "1" * digits)
