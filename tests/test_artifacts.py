"""Byte-level pins of what the command line publishes.

Each `trish run` case writes small seeded LIBSVM files, runs a 2-cell x
2-rep grid at a fixed G through `cli.main`, and hashes grid.csv, every curve
file in order and the printed stdout with SHA-256.  So a change to a
trajectory, the aggregation, the curve regridding, the number format, the
file naming or the best-cell line changes a digest.  `trish verify-theory
--seed 0` is pinned as text.

Like tests/test_golden.py, the digests pin this numpy/BLAS build.  They change
only together with a documented trajectory or format change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import write_libsvm
from trish.cli import main


def write_data(directory):
    """A sparse +-1 train/test pair, the same rows as one file, and a
    real-valued target file for the regressor."""
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(200, 5))
    X[rng.random(size=X.shape) < 0.3] = 0.0
    margin = X @ rng.normal(size=5) + 0.5 * rng.normal(size=200)
    signs = np.where(margin >= 0, 1.0, -1.0)
    write_libsvm(directory / "train.libsvm", X[:140], signs[:140])
    write_libsvm(directory / "test.libsvm", X[140:], signs[140:])
    write_libsvm(directory / "signs.libsvm", X, signs)
    write_libsvm(directory / "air.libsvm", X, 5.0 + margin)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("data")
    write_data(directory)
    return directory


def sources(data_dir):
    pair = {"train_path": str(data_dir / "train.libsvm"),
            "test_path": str(data_dir / "test.libsvm")}
    return {
        "logistic-pair": dict(pair, model="logistic"),
        "logistic-data_path": {"model": "logistic", "train_fraction": 0.6,
                               "data_path": str(data_dir / "signs.libsvm")},
        "mlp_classifier": dict(pair, model="mlp_classifier", positive_label=1.0),
        "mlp_regressor": {"model": "mlp_regressor", "normalize": True,
                          "data_path": str(data_dir / "air.libsvm")},
    }


GRID = {"alphas": [0.1, 1.0], "gamma1_multipliers": [4.0],
        "gamma2_multipliers": [1.0], "reps": 2, "seed": 7, "g_value": 0.5,
        "budget_epochs": 4.0, "output_dir": "results"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (source, algorithm): SHA-256 of grid.csv, of curves/<algorithm>_000.csv and
# _001.csv, and of stdout
DIGESTS = {
    ("logistic-pair", "trish"): (
        "bf9679f365c1ff06b269a484cf26bb39a25482948a4580eefa195b9224e8d083",
        "c4b22dc39e5bceec38c330db8dde8bdf78072909a7ca989ee268ce2763671b47",
        "9e676e164a10a391550b555092114e988d4eec8a72a0b7c58220fb4f97ba7448",
        "a5985affd91e10ff7d2ccb157ef9f8cea8def6c71db7006800cc4f6bb7fe654d",
    ),
    ("logistic-pair", "trish_as"): (
        "8e10bfc8273a4e40f91e7b5b00b64643720e3a01ef156655dbec5280b9f03aa6",
        "e2e1f6b4336973fe01e881618b6460f77e2732f0f9f23af54304b00bc4f1211f",
        "2005d472a6db342cbff43d6b63a1fe195b827e68cf48a463b2e6275ff74158e6",
        "2b8b6d936c4e5a5e82918ea092c8c461977685d3d70e378ac242eb25775c69e2",
    ),
    ("logistic-pair", "sg"): (
        "9f37ce62faab8bb0b53a7d9a3a5e9a4e41a8b2ab13d20d247e8bc1bb26f73377",
        "98ed28e610901bbe56984a162a9c4c7e58e7d05783dc83e3b2f67f5383561b86",
        "b10b049436539e543ef1f177c15fedc31fec918e157daa062492a060cc5e2347",
        "35eb9f945107953bb28016b037f09b04553291ccf58a9663fc15c8d0cc479253",
    ),
    ("logistic-data_path", "trish"): (
        "1e9bf46faadd3756eb8ec90d653056e6e866b7f1d96d92b56c26b6f985e3bbc6",
        "196f01ed0bdb596e358e9cc777ee3e8eb6acba3082c3e73dbddf220b28e0f74c",
        "0c22d6dd1d9275ea017ce4a97af8d9cebcbfddee022627551e6d02db80b95e18",
        "08b91073d9b56f77fd737728e78fb4e550d6aa69ab1e84337bd28d2279ecd2ac",
    ),
    ("logistic-data_path", "trish_as"): (
        "65e16a8c8f786a9d785828db09218895945bca016bc0ea37dd3db5d2cdfe2bdc",
        "ee61b31770a10104e8614d890c197ece6f16e01afb02e70c62a4626c90e2096c",
        "4fe8c3f548edb4162b255b963aa4697b8212a7ccf027d7b31af8f0fb763a7002",
        "c8fa3a91ea5f4520850d4f6ec4aeb1c0e45a791775f54058e02b7e1daef05ca3",
    ),
    ("logistic-data_path", "sg"): (
        "c67a9d17a0ed1331c734d6160c0ad52abe8639c179bc0bb17c9e01a52e64e6e7",
        "972e521f5ea5555d3e1f045e88a019c91fd94ba51a5d320f6ec1606d860c02ed",
        "d56acbeeab8cb533aa372f4768f63f2f1a172acc8edf43683acf46e41442add7",
        "b1ade52478ef85356dded52c51514e8c9cdd93a006f41c5ae83e27ed6c988d83",
    ),
    ("mlp_classifier", "trish"): (
        "6252c650af717801c54dbf77e7f7eb9e60d8acd9fb528044de1ce6b4231c6d25",
        "79058d3fbc2dc83abef66c093d19e6946a330a343909c1d7688763ff077ee267",
        "9284656d46a776d60c01f7640e593b2de9f4e336c10e88b4a79d2f942731adcb",
        "cfb292253393af0065605fdfdf33c2010a1fdf99bd4a96ee1c9dba268fd1b3da",
    ),
    ("mlp_classifier", "trish_as"): (
        "60d0b4e4c79a23114d1ddd49daf757a63c5795ffa426ebb6456a61f025b44d84",
        "85d7ba93588243a10f67294c2b4a51aa33e430bcd89cfb58ce41753352785fae",
        "9f36c964be81ef03700ea1279c3946aaf576959f2c29c04e5aeb72a6f9a4781d",
        "c1161b95d358344d7226dfe1e55eaed93218a3047136b25e0ce2026f4642bafc",
    ),
    ("mlp_classifier", "sg"): (
        "fcac5ec38f2915eede4af6be66255dc90da11649fa98a894ea314ea7e44d52a3",
        "51606275b481204fd3eab8452badaa0013981119fe6da3eea9730df0f93773a3",
        "aa5e8966b6f3c6c9c0bac2a6f77c12a89b18bace2e6b46632e4f81cb5f3878e1",
        "1c01abdaf057fbadebb65e92585ccbec2d59644f821a22e538c220f460917b27",
    ),
    ("mlp_regressor", "trish"): (
        "6e818955cfcf5032ce6380e6ac4ab679bd9447596ffaad432837e7092ddaa932",
        "147d97058a9e5c2b91151942dec0ee022b2d6d6b518e651728353edbf23a8bda",
        "b6e034be4af8448bbce8a0fa5d7d5e1ef6c1d66372476dc35a3cf56e646c3e01",
        "6cd2fac1e60cc143057dbd9170f4c0c8698610005acad6c8c91987c07c5b66cf",
    ),
    ("mlp_regressor", "trish_as"): (
        "d915027c7a96ea83043b03c80a988b4e7dbd41458264637d068cf97120e541fa",
        "565256161046304e42c4f582b86825457fbee1e12c2eab7569c261c52607167a",
        "b8b3ec973b843a367aa097d1b12b51cc56f9837437fbf27b4ce5a1116b194c56",
        "03227fd185f6a9444dfefd97d564eaa671165fe5a1bd218cc486ea572ad5a2c9",
    ),
    ("mlp_regressor", "sg"): (
        "284af79cd518d4e05fbaa29656d5de31a0904169a6765be9bced5675ac214b85",
        "26f8fb0bdcfbbf88cfe9ef090444db5481b8d6d618e4b6071acd96020a6050f3",
        "0518956087e2ddbf4d557ad890d016ad7ba14858f90ffabc0d5d0132a97e4b1b",
        "9717797c8d2700a24246fbce5af1e57a3f243d0af303fe05daeeecb7325f6167",
    ),
}


@pytest.mark.parametrize("case", list(DIGESTS), ids="-".join)
def test_run_artifacts(case, data_dir, tmp_path, monkeypatch, capsys):
    source, algorithm = case
    monkeypatch.chdir(tmp_path)  # a relative output_dir keeps stdout path-free
    config = {**sources(data_dir)[source], "algorithm": algorithm, **GRID}
    Path("config.json").write_text(json.dumps(config))
    assert main(["run", "--config", "config.json"]) == 0
    curves = sorted(Path("results/curves").iterdir())
    assert [p.name for p in curves] == [f"{algorithm}_000.csv", f"{algorithm}_001.csv"]
    digests = (sha256(Path("results/grid.csv").read_bytes()),
               *(sha256(p.read_bytes()) for p in curves),
               sha256(capsys.readouterr().out.encode()))
    assert digests == DIGESTS[case]


def test_verify_theory_output(capsys):
    assert main(["verify-theory", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (
        "expected-decrease check: 200 random points/parameters, 0 violations -> PASS\n"
        "plateau check: mean gap 1.649e-04 (+/- 3.2e-05) vs bound 2.255e-02 -> PASS\n"
        "vanishing-gap check: gamma ratio ok=True, final gap 2.057e-230 -> PASS\n")
