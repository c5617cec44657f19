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
        "e49f30e41d8a46cbee8ef49cf3a2d3d6596805cffb36475c54007d70b2e9281a",
    ("logistic", "sg", "FIXED", 16, 3.0, 0):
        "0fd01a052ffe11f1004391a51976faa975dc2312905b32b950d59f1db8c0d84e",
    ("logistic", "trish_as", "TIGHT", 4, 6.0, 0):
        "92254f36da7570a6c77d533c183bd8124da7dbe7cf8e8776672819a3206cf836",
    ("logistic", "trish_as", "LOOSE", 2, 4.0, 1):
        "e1621e20c5ac029b79ac54e1ebcc28461820ea211dc9f8bca86443cdb68a038c",
    ("dense_logistic", "trish", "FIXED", 16, 3.0, 0):
        "af14d62c7d6b34088e6671668ad41fbb536e7e91f4bb034f3c1bede1b196a412",
    ("dense_logistic", "sg", "FIXED", 16, 3.0, 0):
        "1aa2d37d2ebd47e1243512d27082bc053feef7b349881723a2383f5875eb770b",
    ("dense_logistic", "trish_as", "TIGHT", 4, 6.0, 0):
        "92e07ca394b07bad23835ad331ce9db3f42a292d20b3cde96b1c3ea36f32919a",
    ("dense_logistic", "trish_as", "LOOSE", 2, 4.0, 1):
        "c6ec471f8d4ab8e91b7cb775e3ebd9edfd1d1c9c361f3bf073d43ffb6e9132e5",
    ("mlp", "trish", "FIXED", 8, 2.0, 0):
        "ed85a600110cf4c6fb739f7d7258b384ca966ac21c1bd13d31c8da9a39e9ba03",
    ("mlp", "sg", "FIXED", 8, 2.0, 0):
        "b702d93740380cabef9f549643236c6365d6a51b1442471c7be9b1252b4e7ac5",
    ("mlp", "trish_as", "TIGHT", 2, 4.0, 0):
        "1ed2b50907e3b70fd577f6766256b7319c141da29ec8501025a0b4664c676e48",
    ("mlp", "trish_as", "LOOSE", 3, 4.0, 2):
        "7489e497a4e1b980b53c9b7b80e14c6c16781329f65ae830e0acbeceed663c0a",
    ("mlp_classifier", "trish", "FIXED", 8, 2.0, 0):
        "0588be135a1e567fd63e5691ad98dfa37452ac59baea29f243475a2b08abbc6f",
    ("mlp_classifier", "sg", "FIXED", 8, 2.0, 0):
        "82ebc0bf8efb4fb8fe75b7548c92e1ea97e84e9b91a278323481eabd1d335c4b",
    ("mlp_classifier", "trish_as", "TIGHT", 2, 4.0, 0):
        "8d16e4baa6a8e7cfd4ebf6edf3d8f19ad2bf1625bdf846a96700cced7428a65e",
    ("mlp_classifier", "trish_as", "LOOSE", 3, 4.0, 2):
        "01ff1250d7a0368de413c0c5ef35a90975f5286fc89f973868a4404b0dfa4ce8",
    ("quadratic", "trish", "FIXED", 6, 4.0, 0):
        "fcf61df61f40df31c8c5035efcb4ced83ce70accbcfdeed662e6def7144d7f4e",
    ("quadratic", "sg", "FIXED", 6, 4.0, 0):
        "87ca7f9e5795d1605a986c7ecde0cba08f0c77be57593d5d779797975dc9f232",
    ("quadratic", "trish_as", "TIGHT", 2, 8.0, 0):
        "da944477a72d1feb0b20057898e3dafa14dfb237ae700b37d4ea74d621823999",
    ("quadratic", "trish_as", "LOOSE", 2, 10.0, 3):
        "46d7cb0701eb7c85096aa7d3123acd8efe6984c76e6034c3129ddaae36c9b97a",
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
