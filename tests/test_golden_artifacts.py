"""Run artifacts on the test fixture records are byte-identical to the
recorded goldens.

Every command in CASES runs once, in order, on the ``wfdb_fixtures``
records; later cases read earlier cases' outputs (``{features-ann}``
names that case's output directory).  ``{odd_peaks}`` is a peak list
for recA with one beat missing and two spurious peaks, so the feature
table skips unmatched peaks and spans a doubled interval.  Each listed
artifact's SHA-256 must equal its golden, and so must each case's
``manifest.json`` config block, its ``inputs`` and ``outputs`` blocks
(file names and their hashes) and its stdout, each with the fixture
directory masked.

The goldens were taken with numpy 2.4.6 and OpenBLAS 0.3.31.  A
refactor must leave them unchanged; a change that means to move a
number updates them and says why.
"""

import contextlib
import hashlib
import io
import json
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
    "ingest-a": ["ingest", "--record", "{a}"],
    "detect-a": ["detect", "--record", "{a}"],
    "selflearn-drop": ["selflearn", "--record", "{drop}"],
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
    "activation-error": ["activation-error"],
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
    "ingest-a/recA-signal.txt":
        "61a6a3764d1e10580c874d6bf1cbb74eb9e0ab0493fcc767fc0acf80a3ad5ce5",
    "ingest-a/recA-annotations.txt":
        "c7edc788a03fae3500845f802393be0204bbd65359c8a108e03bd71565145c68",
    "detect-a/recA-peaks.txt":
        "39fc5e955449a02ddb008b18cf3014efbde20bbf9a96e54d53d71dd08b38db50",
    "selflearn-drop/anomalies.csv":
        "ac9d3bcdeff7f9111f7dad7ca811c4526035b122ec2dd205f35c5dd6a2f799ac",
    "activation-error/activation-error.txt":
        "bcbab0512fa4b82088b9ab8dd4e5e51b942c689a7c8f04c6f88b0221557593cc",
}


# each case's config block as masked_config writes it
MANIFEST_CONFIG = {
    "activation-error":
        "bc6365a3a89b9fc09d5aceba1420b94a14873ea8090ba5ef327b17f801e8e4fd",
    "detect-a":
        "9054b785563893cb106073192ee701d99a6a04aff81e02546cef31f9829bf79e",
    "evaluate-exact-ann":
        "0680e0a5a2b7285a0556d63e6acd8d2c690158a5633fb9db959662d9e82895c1",
    "evaluate-exact-uni-dwt":
        "3c73f644ec27ea525f59aeaf5079ea1da035f15878bb9fadefb77208ca6385ac",
    "evaluate-fixed-ann":
        "6d24847f019a79389fc2b833bfd6f9f933e6c1d7caeccf099b4689f4f363df08",
    "evaluate-fixed-uni-dwt":
        "20b486273b13f49f671d826937a04e49cbcfec36dac8b1862801bf0c21335f18",
    "evaluate-pla-ann":
        "b627ecdc1254eff6cbc450a0074f883f0535cfe6a92687559001f1a2a3b38927",
    "evaluate-pla-uni-dwt":
        "bf649b4f7e0e17d69ebe55bc38d6af55b8474d165e07e1addd623af7d2b0a0bd",
    "evaluate-self-learner":
        "28043e52545753815720787920cc30a11358fb89f56ea646c6ec44c369b59404",
    "features-ann":
        "d1e9716b8ec90ad8a1feb217b21d466f919965ce1eb81a4ce0045fbec6d0d6b9",
    "features-detector":
        "f4a0d1ec855d510d7359724879b3a0fe268addfd63dd64e4e8d070d2b3c0256b",
    "features-odd-peaks":
        "1bdacd7425f6f553ddf461f2623b7222e0c411a99b7ae31adcd28971a2fdc399",
    "features-peaks":
        "d56d4db64a463831236c88653c6f61562701b8d423450ad6f4c66245089235e5",
    "features-window51":
        "3cc3abbcbdf088dff1e5b03719f571758aba8d26ce4f2590f129f5005cd490df",
    "infer-q24.3":
        "947cb638ed982374cf8b64387cb360c90bf279088115bae80fea2714e3ae9898",
    "infer-real":
        "48854efb443f199972774689fc244c1571a94ce510b6bc69b74af6d2002e879b",
    "ingest-a":
        "9054b785563893cb106073192ee701d99a6a04aff81e02546cef31f9829bf79e",
    "selflearn-drop":
        "9c977cdafb19d0b98ea2d054ef136004078eceff5b77ada152160061b33c0b16",
    "sweep-ann":
        "0cbb5c710434daa6d2e4e7e9c171af224208c0052e78dc6cfbf6b72f75c1d7d9",
    "sweep-uni-dwt":
        "9dcb1d8d13ab9ce0e5b5e5f32dafe0eb42c868121712fa4cb4f5c886d14abd8d",
    "train-exact":
        "03276453688db6ee7444cdba897f31485c53effb1e31bbc4e353446335817437",
    "train-pla":
        "ce9342742da3a8dc5819ebf6bde33e070a7f2b2c11c294602c1f77401e10089c",
}


# each case's manifest inputs and outputs blocks as masked_files writes them
MANIFEST_FILES = {
    "activation-error":
        "71751a9a7ff10cd364c47cfef7dd54e4fdf3235d155ac0238ffcafaeae561f44",
    "detect-a":
        "1b41341dec2e1821fbe25f1b8e289ae72666845e2eb40dc48173a827d4b1f11b",
    "evaluate-exact-ann":
        "dcd99d1ef5e456b19fbfedd572afe0066810d1f4270a0cff5893d2d52542cd1c",
    "evaluate-exact-uni-dwt":
        "59fc93c06bb1cbf270cfe5340b65ea7edc3e79bd6178e96eb0ddc5aa06e9e28f",
    "evaluate-fixed-ann":
        "8664a3abe2c8ba644c957c5814c3f9129313b038113f8784b4ffae156f875d8d",
    "evaluate-fixed-uni-dwt":
        "ab444b1a40ecfb35c6850ef491f27d5d077053fa590e2140b7c3f3a6b210294b",
    "evaluate-pla-ann":
        "6457b8e85784c62bdaca89c7622592b31b0029b831b3d1b16e11e9ca3384e8a8",
    "evaluate-pla-uni-dwt":
        "89bcdd5f12733d26f1a92612725e8aa6ce7f7abd8d597912af71408d99a6062a",
    "evaluate-self-learner":
        "cfa516eb1974551d9a17cff27b6896a4d6c5b9aa3e0d6d501cca132ac28dd286",
    "features-ann":
        "385382ba807c610a8481c1a21ec206f86a12cbc19cb7e41ca4252d094a74f9e8",
    "features-detector":
        "b8982c9984daf598d7ca40017f1034fa8f7b449ce72f979cc2c80c4aac4bfa7e",
    "features-odd-peaks":
        "9e58e35bfb6a81ab3a7ccd9771ddfaf2d37db14e6cb6aafb1cc8435a7e824064",
    "features-peaks":
        "8670f05f0748e1708af9e13f88b02b10b8f6e4ce91bc42ae9731b0a2dbe33d05",
    "features-window51":
        "8c114e77b90879264c986e374c9c1ae592f7edd2075a24775d589ce8a0acf208",
    "infer-q24.3":
        "7c2cd29463996132daa46fb4c81180875964b4d3a5f0b8c74a83a02b0a5292ca",
    "infer-real":
        "3a425c46b4bc1c7e7f878d5cb48f0204fe919ee0375e39478d4576b9727b41b5",
    "ingest-a":
        "7ae298138c640dfe2e07388cfb5e9fe225c4561e3ea9a06c8d54a46f292beac8",
    "selflearn-drop":
        "5efb85f42d00460583afe64ba3acd8c2e3fca789e637f41c3c2583369550a63f",
    "sweep-ann":
        "b2a2fcdd0c5897fe53a3fbf02e462cb0692bb4e2d1f044d179efaab261cbe5ac",
    "sweep-uni-dwt":
        "2534e992d89210ce5a6590940d1c96826f02f93ca0740d7d2c9670ecc29a47d5",
    "train-exact":
        "9cd828594500ae043f0099a030b2c06a8e4947f54285c1f6b4da2d2d27c4c1af",
    "train-pla":
        "6ac797938315f4bbc576d32ac1529bc0c8b2ba655cd2525c681487dc3152b2e2",
}

# each case's stdout, the fixture directory masked
STDOUT = {
    "activation-error":
        "bcbab0512fa4b82088b9ab8dd4e5e51b942c689a7c8f04c6f88b0221557593cc",
    "detect-a":
        "d8b2da9c20afa6e81d3fd00afb72ca8fb54237b25f93f3869a051527c8a114b6",
    "evaluate-exact-ann":
        "24032d7ae352983078e10ad3a2ec4d4e8c896d77b5b7d552fd207fc1a31679dc",
    "evaluate-exact-uni-dwt":
        "62da1b83f703a27459e1921ab1e2d19e32f1c6ac4888e5f34dadcfdd52da058f",
    "evaluate-fixed-ann":
        "d257f70dcdbdce37e86dbd5c1ace6ba237fe469f2dc13b62cb67c4350e20f21b",
    "evaluate-fixed-uni-dwt":
        "08fd40bcb4fcfd17017b4d21b45dd99cb477f1c6de803b54e9d7bcaf5300aab0",
    "evaluate-pla-ann":
        "f66d0c19d8a9593042c099266aae01a8a9cd348157747bf871d8bb83568492c1",
    "evaluate-pla-uni-dwt":
        "1f64badbf200ca6ab886e019a70dbb57daed70488225d85702e08a0a91bf8211",
    "evaluate-self-learner":
        "10ad76d0c9a1c0331b0e6607767c7ba72f6ed622d5017168c21891e68a35a9a9",
    "features-ann":
        "e86067683f7cf373bd2daf542e6976f952df876a3fba914448528f3616af90df",
    "features-detector":
        "40b3532076b5b5441b22a6883ad274f55900d78763c5b9bbf6830ee35de76080",
    "features-odd-peaks":
        "5512ae780957d143ab0754f5aa88b193e86ee69994c2f9fdd6fa2353e63ac17d",
    "features-peaks":
        "cae3df44f65f54145b19cbdcb9418930b6e59decb51abd0a213dcb428ab9ad86",
    "features-window51":
        "e86067683f7cf373bd2daf542e6976f952df876a3fba914448528f3616af90df",
    "infer-q24.3":
        "89708e8edffaba588cb2bdde31383c90b2fd2900cb38c13c778fa45b457ad5b9",
    "infer-real":
        "b8b4d8f12f440abb6bd62aae80d2cd311f69225a7ceb08ab3dc0210dd5e677e0",
    "ingest-a":
        "a13c1769cf60812e467c3f373d6700c5124da473c86d5550508fcddbed3b640b",
    "selflearn-drop":
        "b47942a25672220cb66021deca3aaad5389db294a3b4ad938f420d3e745ff887",
    "sweep-ann":
        "58afba64ea1c681207660dcde507e797d37f95fa33152d16f7665bc3fba5c80b",
    "sweep-uni-dwt":
        "c2000d30f56a80a4d89186ddbedca873601b71fd9d6079653462d8ec7c08bc31",
    "train-exact":
        "d3f4fc1d6d7202e369d24d23941befe171b0a64395c23a09e7a2590be86a263d",
    "train-pla":
        "d3f4fc1d6d7202e369d24d23941befe171b0a64395c23a09e7a2590be86a263d",
}


def run_cases(root, stdout=None):
    """Write the records under root, run every case; name -> path.  Each
    case's stdout goes into the stdout dict, if one is given."""
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
        with contextlib.redirect_stdout(io.StringIO()) as text:
            status = main([arg.format(**places) for arg in argv] + ["--out-dir", out])
        assert status == 0, name
        if stdout is not None:
            stdout[name] = text.getvalue()
        places[name] = out
    return places


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    stdout = {}
    return run_cases(tmp_path_factory.mktemp("golden"), stdout), stdout


@pytest.fixture(scope="module")
def outputs(runs):
    return runs[0]


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_artifact_matches_golden(outputs, artifact, capsys):
    case, filename = artifact.split("/")
    with open(os.path.join(outputs[case], filename), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN[artifact]
    capsys.readouterr()


def masked_config(out_dir, root):
    """A case's manifest config block as JSON, the fixture directory masked."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        config = json.load(fh)["config"]
    return json.dumps(config, sort_keys=True).replace(root, "{root}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_manifest_config_matches_golden(outputs, case):
    text = masked_config(outputs[case], os.path.dirname(outputs["a"]))
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_CONFIG[case], text


def masked_files(out_dir, root):
    """A case's manifest inputs and outputs blocks as JSON, the fixture
    directory masked."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    files = {key: manifest[key] for key in ("inputs", "outputs")}
    return json.dumps(files, sort_keys=True).replace(root, "{root}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_manifest_files_match_golden(outputs, case):
    text = masked_files(outputs[case], os.path.dirname(outputs["a"]))
    assert hashlib.sha256(text.encode()).hexdigest() == MANIFEST_FILES[case], text


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(runs, case):
    places, stdout = runs
    text = stdout[case].replace(os.path.dirname(places["a"]), "{root}")
    assert hashlib.sha256(text.encode()).hexdigest() == STDOUT[case], text
