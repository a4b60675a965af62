"""Run artifacts on the test fixture records are byte-identical to the
recorded goldens.

Every command in CASES runs once, in order, on the ``wfdb_fixtures``
records; later cases read earlier cases' outputs (``{features-ann}``
names that case's output directory).  ``{odd_peaks}`` is a peak list
for recA with one beat missing and two spurious peaks, so the feature
table skips unmatched peaks and spans a doubled interval.  Each listed
artifact's SHA-256 must equal its golden.  Manifests hold absolute
paths and are not compared.

The goldens were taken with numpy 2.4.6 and OpenBLAS 0.3.31.  A
refactor must leave them unchanged; a change that means to move a
number updates them and says why.
"""

import hashlib
import os

import pytest

from ecgarr.cli import main
from wfdb_fixtures import classifier_record, dropout_record

TRAIN = ["--seed", "3", "--max-epochs", "150"]
PAIR = ["--record", "{a}", "--record", "{b}"]

# case name -> argv; the output directory is appended as --out-dir
CASES = {
    **{f"evaluate-{c}-{d}": ["evaluate", *PAIR, "--classifier", c, "--detector", d, *TRAIN]
       for c in ("exact", "pla", "fixed") for d in ("ann", "uni-dwt")},
    "evaluate-self-learner": ["evaluate", "--record", "{a}", "--record", "{drop}",
                              "--classifier", "self-learner"],
    "detect-a": ["detect", "--record", "{a}"],
    "features-ann": ["features", *PAIR, "--peaks-from-annotations"],
    "features-detector": ["features", "--record", "{a}", "--record", "{drop}"],
    "features-peaks": ["features", "--record", "{a}",
                       "--peaks", "{detect-a}/recA-peaks.txt"],
    "features-odd-peaks": ["features", "--record", "{a}", "--peaks", "{odd_peaks}"],
    "features-window51": ["features", *PAIR, "--peaks-from-annotations",
                          "--window", "51"],
    "train-pla": ["train", "--features", "{features-ann}/features.txt", *TRAIN],
    "train-exact": ["train", "--features", "{features-ann}/features.txt", *TRAIN,
                    "--activation", "exact"],
    "infer-real": ["infer", "--features", "{features-detector}/features.txt",
                   "--model", "{train-pla}/model.txt"],
    "infer-q24.3": ["infer", "--features", "{features-detector}/features.txt",
                    "--model", "{train-pla}/model.txt", "--fraction-bits", "3"],
    "sweep-ann": ["sweep-fraction-bits", *PAIR, *TRAIN,
                  "--fraction-bits-min", "2", "--fraction-bits-max", "14"],
    "sweep-uni-dwt": ["sweep-fraction-bits", *PAIR, *TRAIN, "--detector", "uni-dwt"],
}

GOLDEN = {
    "evaluate-exact-ann/report.txt":
        "24032d7ae352983078e10ad3a2ec4d4e8c896d77b5b7d552fd207fc1a31679dc",
    "evaluate-exact-uni-dwt/report.txt":
        "62da1b83f703a27459e1921ab1e2d19e32f1c6ac4888e5f34dadcfdd52da058f",
    "evaluate-pla-ann/report.txt":
        "f66d0c19d8a9593042c099266aae01a8a9cd348157747bf871d8bb83568492c1",
    "evaluate-pla-uni-dwt/report.txt":
        "1f64badbf200ca6ab886e019a70dbb57daed70488225d85702e08a0a91bf8211",
    "evaluate-fixed-ann/report.txt":
        "d257f70dcdbdce37e86dbd5c1ace6ba237fe469f2dc13b62cb67c4350e20f21b",
    "evaluate-fixed-uni-dwt/report.txt":
        "08fd40bcb4fcfd17017b4d21b45dd99cb477f1c6de803b54e9d7bcaf5300aab0",
    "evaluate-self-learner/report.txt":
        "10ad76d0c9a1c0331b0e6607767c7ba72f6ed622d5017168c21891e68a35a9a9",
    "features-ann/features.txt":
        "a7fa96f7f5301a07fc52df5b12b33db63504b5bd2abf07aaafd4ceaafc6c09fc",
    "features-ann/pca.txt":
        "025b63d7d36cd992fa673ede7a9f08e78198609b580b5819283c8cf7c3a5574d",
    "features-detector/features.txt":
        "f9b7f67f9d0a5747b52cbcfd48fab3bdab9d4a87e45013d3d73292f37cd854ea",
    "features-detector/pca.txt":
        "fce52438e6d939249d607223c3aecde9499ce28d042e52230d81adafacf21c4e",
    "features-peaks/features.txt":
        "1d0ea26c148fdd3ce0de658aca22ec6aa952bb24ced84ec9fbd482618dc8d711",
    "features-peaks/pca.txt":
        "bb55a34913830be5e68c6f9419eed068c7f9f75f7548d011f6bbcaf14643b625",
    "features-odd-peaks/features.txt":
        "0a7ec572bae1bc1da9ba4413e84c6658810421cc41bf08dba4d36a646d139d91",
    "features-odd-peaks/pca.txt":
        "1135971a662f7441c0815a4c2fe35202689639a6b91db4abcb7461a45a96a8bf",
    "features-window51/features.txt":
        "45fe92cec79c4175a3c136cbd7ee22ef8c87a955716d1c4576ba919fa0bb635d",
    "features-window51/pca.txt":
        "d67dffed1141af8b3adc74f94499c7316db7e54739de5de7762b9baef5dcbedc",
    "train-pla/model.txt":
        "4c0b6cfd9b08542266ae781372c24edfac7c4a4fa0c7ae43cac4bf1fd335f3b9",
    "train-pla/history.txt":
        "5a741e601ce2ddf48b76e330327741a8b829fbf9d342031d7aad0505bf0dfe6f",
    "train-exact/model.txt":
        "a88a66470a7284a25ee1dd5cfceff1a238de457c33e55978ca86007f11a9d989",
    "train-exact/history.txt":
        "88e67ae30159dee70b1ea97c255b3c7fca50ac323f6249f80902fb60e6f8735b",
    "infer-real/verdicts.txt":
        "51de9bfd517fe1a71e23834cb8e5194932de36fedf6e50c5a0a7dc6be5ea9db1",
    "infer-q24.3/verdicts.txt":
        "874dac656b696e6440c3dc572e8c7d05440366a672ca63bf0bf72e7debd942be",
    "sweep-ann/sweep.txt":
        "58afba64ea1c681207660dcde507e797d37f95fa33152d16f7665bc3fba5c80b",
    "sweep-uni-dwt/sweep.txt":
        "c2000d30f56a80a4d89186ddbedca873601b71fd9d6079653462d8ec7c08bc31",
}


def run_cases(root):
    """Write the records under root, run every case; name -> path."""
    odd_peaks = sorted({150 + 300 * k for k in range(40)} - {1950} | {300, 5000})
    places = {
        "a": classifier_record(root, "recA", seed=0),
        "b": classifier_record(root, "recB", seed=1),
        "drop": dropout_record(root, "recC"),
        "odd_peaks": str(root / "odd-peaks.txt"),
    }
    with open(places["odd_peaks"], "w") as fh:
        fh.writelines(f"{p}\n" for p in odd_peaks)
    for name, argv in CASES.items():
        out = str(root / name)
        assert main([arg.format(**places) for arg in argv] + ["--out-dir", out]) == 0, name
        places[name] = out
    return places


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_artifact_matches_golden(outputs, artifact, capsys):
    case, filename = artifact.split("/")
    with open(os.path.join(outputs[case], filename), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN[artifact]
    capsys.readouterr()
