"""Seeded mutations of a record's files, run through the command line.

Each mutation truncates one of a record's three files (``.hea``,
``.dat``, ``.atr``), flips one of its bytes or inserts a few bytes, at a
seeded place.  The mutated record then goes through a two-record
``evaluate``, where it loads on a worker thread next to an intact
record, and through ``detect`` and ``selflearn``.  A mutation the
readers accept (a flipped sample, say) may exit 0; one they reject
exits 1 or 2 with a single ``error:`` line.  No exception may escape
``main``, because a user would see it as a traceback.
"""

import os
import re
import shutil

import numpy as np
import pytest

from ecgarr.cli import main
from wfdb_fixtures import dropout_record

SUFFIXES = (".hea", ".dat", ".atr")
KINDS = ("truncate", "flip", "insert")
TRIALS = 10


def _mutate(data: bytes, kind: str, rng) -> bytes:
    at = int(rng.integers(len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ int(rng.integers(1, 256))]) + data[at + 1 :]
    inserted = rng.integers(256, size=int(rng.integers(1, 5)), dtype=np.uint8).tobytes()
    return data[:at] + inserted + data[at:]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """An intact record, and the directory of the record that is mutated."""
    return (dropout_record(tmp_path_factory.mktemp("intact"), "good"),
            os.path.dirname(dropout_record(tmp_path_factory.mktemp("template"), "bad")))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("suffix", SUFFIXES)
def test_mutated_record_exits_with_an_error_line(originals, tmp_path, pool_workers, capsys,
                                                 suffix, kind):
    pool_workers(2)  # two workers on any host
    intact, template = originals
    rng = np.random.default_rng([SUFFIXES.index(suffix), KINDS.index(kind)])
    for trial in range(TRIALS):
        trial_dir = tmp_path / str(trial)
        shutil.copytree(template, trial_dir)
        mutated = trial_dir / f"bad{suffix}"
        mutated.write_bytes(_mutate(mutated.read_bytes(), kind, rng))
        header = str(trial_dir / "bad.hea")
        pair = (header, intact) if trial % 2 else (intact, header)
        for argv in (["evaluate", "--record", pair[0], "--record", pair[1],
                      "--classifier", "self-learner", "--detector", "uni-dwt"],
                     ["detect", "--record", header],
                     ["selflearn", "--record", header]):
            capsys.readouterr()
            rc = main([*argv, "--out-dir", str(trial_dir / argv[0])])
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), (trial, argv[0], rc)
            if rc:
                assert re.fullmatch(r"error: [^\n]+\n", err), (trial, argv[0], err)
