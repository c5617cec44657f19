"""Golden trajectories: every driver, with telemetry on, on five problems.

Each case hashes the final iterate and every record field with SHA-256, so
any change to a batch draw, a step, a sampler decision, the EGE count or a
telemetry value changes its digest.

The digests pin this numpy/OpenBLAS build: another BLAS or numpy may round
a dense product differently.  They change only together with a documented
trajectory change.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

import trish.optimizer as optimizer
from trish.data import chronological_split, minmax_normalize
from trish.models import (LogisticModel, MlpModel, testing_accuracy,
                          testing_loss)
from trish.optimizer import HyperParams, run_sg, run_trish, run_trish_as
from trish.theory import SyntheticQuadratic


def sparse_logistic():
    rng = np.random.default_rng(11)
    X = sp.random(300, 20, density=0.2, format="csr", random_state=12)
    y = np.where(X @ rng.normal(size=20) + 0.3 * rng.normal(size=300) >= 0, 1.0, -1.0)
    model = LogisticModel(X[:200], y[:200])
    return model, lambda xs: testing_accuracy(model, xs, X[200:], y[200:])


def dense_logistic():
    """Dense features, so held-out margins take one product per iterate."""
    rng = np.random.default_rng(51)
    X = rng.normal(size=(300, 10))
    y = np.where(X @ rng.normal(size=10) + 0.5 * rng.normal(size=300) >= 0, 1.0, -1.0)
    model = LogisticModel(X[:200], y[:200])
    return model, lambda xs: testing_accuracy(model, xs, X[200:], y[200:])


def dense_mlp():
    """The air path: label and features normalized jointly, then the
    feature block is a column slice (not C-contiguous) of that matrix."""
    rng = np.random.default_rng(21)
    raw = rng.normal(size=(240, 6)) * [1.0, 5.0, 0.2, 3.0, 1.0, 2.0]
    label = raw @ rng.normal(size=6) + 0.5 * rng.normal(size=240)
    both = minmax_normalize(np.column_stack([label, raw]))
    X, y = both[:, 1:], both[:, 0]
    (X_train, y_train), (X_test, y_test) = chronological_split(X, y, 0.7)
    assert not X_train.flags.c_contiguous
    model = MlpModel.regressor(X_train, y_train)
    return model, lambda xs: testing_loss(model, xs, X_test, y_test)


def sparse_mlp_classifier():
    """Sigmoid hidden layer on CSR features, scored by held-out accuracy."""
    rng = np.random.default_rng(41)
    X = sp.random(300, 12, density=0.3, format="csr", random_state=42)
    y = (X @ rng.normal(size=12) + 0.3 * rng.normal(size=300) >= 0).astype(float)
    model = MlpModel.classifier(X[:200], y[:200], hidden=5)
    return model, lambda xs: testing_accuracy(model, xs, X[200:], y[200:])


def quadratic():
    rng = np.random.default_rng(31)
    model = SyntheticQuadratic(diag=np.linspace(0.5, 2.0, 4),
                               offsets=rng.normal(size=(60, 4)),
                               scales=rng.uniform(0.5, 1.5, size=60))
    return model, lambda xs: np.linalg.norm(xs, axis=1)


PROBLEMS = {"logistic": sparse_logistic, "dense_logistic": dense_logistic,
            "mlp": dense_mlp,
            "mlp_classifier": sparse_mlp_classifier, "quadratic": quadratic}

# Tight variance tests grow the adaptive batch fast, up to N; loose ones
# let the size settle so the noisy-regime control engages.
PARAMS = {
    "FIXED": HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0),
    "TIGHT": HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0, theta=0.5, nu=0.5, r=3),
    "LOOSE": HyperParams(alpha=1.0, gamma1=8.0, gamma2=0.5, theta=2.0, nu=3.0, r=2),
}


def digest(x, records) -> str:
    h = hashlib.sha256(np.asarray(x, dtype=np.float64).tobytes())
    for k, r in enumerate(records):
        fields = (k, r.case and r.case.value, r.grad_norm, r.batch_size,
                  r.ege, r.train_loss, r.test_metric)
        h.update(repr(fields).encode())
    return h.hexdigest()


def run_case(problem_name, driver, params, size, budget, seed):
    model, metric_fn = PROBLEMS[problem_name]()
    x0 = np.random.default_rng(seed + 1).uniform(-0.5, 0.5, size=model.n)
    rng = np.random.default_rng(seed)
    if driver == "trish":
        return run_trish(model, x0, params, size, budget, rng, metric_fn=metric_fn)
    if driver == "sg":
        return run_sg(model, x0, params.alpha, size, budget, rng, metric_fn=metric_fn)
    return run_trish_as(model, x0, params, size, budget, rng, metric_fn=metric_fn)


# (problem, driver, params, batch size or s0, budget in epochs, seed): digest
GOLDEN = {
    ("logistic", "trish", "FIXED", 16, 3.0, 0):
        "d6bfbbc301e7244d01f51c7c945482ec01cd78c8fe264cad4b946259aa24bf7e",
    ("logistic", "sg", "FIXED", 16, 3.0, 0):
        "3841f1207eb5d4ea58490363c6c135be96ac5f0dbc6a9dea115fcedde3edaa30",
    ("logistic", "trish_as", "TIGHT", 4, 6.0, 0):
        "423c7133ee00abc4b5a8e253c7052b32b552828b5d328ed7f9e115924b2f6cbd",
    ("logistic", "trish_as", "LOOSE", 2, 4.0, 1):
        "db24dee1da91c2db5125be4709484541e01ee8ab7c8376bf6999c23184fefdc2",
    ("dense_logistic", "trish", "FIXED", 16, 3.0, 0):
        "6081cd000300bb720b258286bcf3f75c39259f9af9519c435caf333afa89ecc8",
    ("dense_logistic", "sg", "FIXED", 16, 3.0, 0):
        "ab4d6dab36d3be04624ff1dabdd621cf8d43d0590b55bc5f46250780d12903f2",
    ("dense_logistic", "trish_as", "TIGHT", 4, 6.0, 0):
        "4c7c6be58cdd60a1fc22a7dd91abaad090917c730fcce638a78401cc0aa69f92",
    ("dense_logistic", "trish_as", "LOOSE", 2, 4.0, 1):
        "ad800eda73381f590ff29b3db5d1e50e71d20641b1bc4f861eb97ff954c3f1c3",
    ("mlp", "trish", "FIXED", 8, 2.0, 0):
        "5ef2fecce8f72651b1b7a25c10f0f0c04360cf8225a9e2031e451ede179bd5fc",
    ("mlp", "sg", "FIXED", 8, 2.0, 0):
        "2b737cea8c6ab4f72d2ebb7c99dcadd07a4b2fd4e8be4e09e20b563b04605e42",
    ("mlp", "trish_as", "TIGHT", 2, 4.0, 0):
        "062f1b54013db300e463767083ee849e46f93140fa7dced60afc6a10e68340e9",
    ("mlp", "trish_as", "LOOSE", 3, 4.0, 2):
        "ea609ef44f34b38a5c919692539c4ce98d5fa5f71da90f93e79bf8a86c0e97f7",
    ("mlp_classifier", "trish", "FIXED", 8, 2.0, 0):
        "52ed1f9b474e7e642cffeadd4769257a705ea3bc46a3240cd57e4ffb1b6a1766",
    ("mlp_classifier", "sg", "FIXED", 8, 2.0, 0):
        "86d563a6edcd4231548d203d40bb05f79ca11c1753fa5d6ffaf6fa25228d0c48",
    ("mlp_classifier", "trish_as", "TIGHT", 2, 4.0, 0):
        "8d16e4baa6a8e7cfd4ebf6edf3d8f19ad2bf1625bdf846a96700cced7428a65e",
    ("mlp_classifier", "trish_as", "LOOSE", 3, 4.0, 2):
        "2ed1a3372a296f8dcc1b0cb131535c939ca25d20b2f894411c06c778b1b0d6f6",
    ("quadratic", "trish", "FIXED", 6, 4.0, 0):
        "b2c3fde0e172a037d89f2a1721a599da8819e6a8131bfc1a36662d3d0fc9f1c1",
    ("quadratic", "sg", "FIXED", 6, 4.0, 0):
        "5a5aabe4b51bbf3e43606afef48c1514ef8e6caa823b1c5f384235355532c110",
    ("quadratic", "trish_as", "TIGHT", 2, 8.0, 0):
        "a9617c84bb3db366475d7cb1a8bd5d3f35a00f8c30b05241e2d61660cd183d4c",
    ("quadratic", "trish_as", "LOOSE", 2, 10.0, 3):
        "c6d3d31fd6d37a9c823e93de49e61cac101eed5faea71fb94727d59585197781",
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_trajectory(case, monkeypatch):
    problem, driver, params, size, budget, seed = case
    engaged = []
    noisy = optimizer.noisy_regime_step

    def counting_noisy(*args):
        result = noisy(*args)
        engaged.append(result is not None)
        return result

    monkeypatch.setattr(optimizer, "noisy_regime_step", counting_noisy)
    x, records = run_case(problem, driver, PARAMS[params], size, budget, seed)
    assert all(r.train_loss is not None and r.test_metric is not None
               for r in records)
    if driver == "trish_as":
        assert records[-1].batch_size > records[0].batch_size
    if params == "LOOSE":
        # These cases also grow through the noisy-regime control's redraw.
        assert any(engaged)
    assert digest(x, records) == GOLDEN[case]
