"""End-to-end command-line tests."""

import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import trish.harness as harness
from conftest import write_libsvm
from trish.cli import build_parser, main
from trish.harness import load_config, run_grid


@pytest.fixture
def logistic_files(tmp_path):
    rng = np.random.default_rng(0)
    w = rng.normal(size=5)
    for name, N in (("train.libsvm", 150), ("test.libsvm", 60)):
        X = rng.normal(size=(N, 5))
        y = np.where(X @ w >= 0, 1.0, -1.0)
        write_libsvm(tmp_path / name, X, y)
    return tmp_path


def test_convert_roundtrip(tmp_path, capsys):
    src = tmp_path / "table.csv"
    src.write_text("1.5,2,0\n-200,1,1\n0.5,0,3\n")
    dst = tmp_path / "out.libsvm"
    code = main(["convert", "--csv", str(src), "--libsvm", str(dst),
                 "--missing-value", "-200"])
    assert code == 0
    assert dst.read_text() == "1.5 1:2\n0.5 2:3\n"
    assert "wrote 2 rows" in capsys.readouterr().out


def write_config(path, **fields):
    path.write_text(json.dumps({"model": "logistic", "algorithm": "sg", **fields}))
    return str(path)


def printed_g(capsys, config_path):
    assert main(["calibrate-g", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("G = ")
    return float(out.split()[2])


def test_calibrate_g(logistic_files, capsys):
    path = write_config(logistic_files / "config.json", seed=3,
                        train_path=str(logistic_files / "train.libsvm"),
                        test_path=str(logistic_files / "test.libsvm"))
    assert printed_g(capsys, path) > 0


def test_calibrate_g_prints_the_g_run_grid_uses(logistic_files, capsys):
    """Pasting the printed G into `g_value` reproduces the calibrated grid bit
    for bit, whatever data source, normalization and split the config sets."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(120, 4))
    write_libsvm(logistic_files / "air.libsvm", X, 5.0 + X @ rng.normal(size=4))
    train_test = dict(train_path=str(logistic_files / "train.libsvm"),
                      test_path=str(logistic_files / "test.libsvm"))
    for fields in (train_test, dict(train_test, normalize=True),
                   dict(model="mlp_regressor", data_path=str(logistic_files / "air.libsvm"),
                        normalize=True, train_fraction=0.6)):
        path = write_config(logistic_files / "config.json", alphas=[0.1],
                            gamma1_multipliers=[4.0], gamma2_multipliers=[1.0],
                            reps=2, seed=0, **fields)
        G = printed_g(capsys, path)
        [cell] = run_grid(load_config(path))
        assert (cell.gamma1, cell.gamma2) == (4.0 / G, 1.0 / G), fields


def test_calibrate_g_parses_the_dataset_once(logistic_files, monkeypatch, capsys):
    parsed = []
    original = harness.parse_libsvm

    def counting(stream, *args, **kwargs):
        parsed.append(stream.name)
        return original(stream, *args, **kwargs)

    monkeypatch.setattr(harness, "parse_libsvm", counting)
    data = str(logistic_files / "train.libsvm")
    printed_g(capsys, write_config(logistic_files / "config.json",
                                   train_path=data, test_path=data))
    assert parsed == [data]


def test_verify_theory_fast_module(capsys):
    code = main(["verify-theory", "--module", "lemma1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 violations" in out and "PASS" in out


@pytest.mark.parametrize("seed, gap", [(0, "2.057e-230"), (5, "9.345e-231")])
def test_verify_theory_thm3_prints_the_pinned_line(capsys, seed, gap):
    assert main(["verify-theory", "--module", "thm3", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == (
        f"vanishing-gap check: gamma ratio ok=True, final gap {gap} -> PASS\n")


def test_run_with_config(logistic_files, tmp_path, capsys):
    config = {
        "model": "logistic", "algorithm": "trish",
        "train_path": str(logistic_files / "train.libsvm"),
        "test_path": str(logistic_files / "test.libsvm"),
        "alphas": [0.1], "gamma1_multipliers": [4.0],
        "gamma2_multipliers": [1.0], "reps": 2, "seed": 5,
        "output_dir": str(tmp_path / "results"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path)])
    assert code == 0
    assert (tmp_path / "results" / "grid.csv").exists()
    out = capsys.readouterr().out
    assert "best cell" in out


def test_run_picks_the_lowest_mse_cell_of_a_regressor(tmp_path, capsys):
    """The regressor is scored by held-out MSE, so its best cell is the minimum."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(80, 3))
    write_libsvm(tmp_path / "air.libsvm", X, 5.0 + X @ rng.normal(size=3))
    path = write_config(tmp_path / "config.json", model="mlp_regressor", algorithm="trish",
                        data_path=str(tmp_path / "air.libsvm"), normalize=True,
                        alphas=[0.01, 1.0, 10.0], gamma1_multipliers=[4.0],
                        gamma2_multipliers=[1.0], reps=2, seed=3, budget_epochs=3.0)
    results = run_grid(load_config(path))
    best = min(results, key=lambda r: r.mean_metric)
    assert best is not max(results, key=lambda r: r.mean_metric)
    assert main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    assert (f"best cell: alpha={best.alpha:.4g} gamma1={best.gamma1:.4g} "
            f"gamma2={best.gamma2:.4g} mean_metric={best.mean_metric:.6g} ") in out


def test_unknown_config_key_fails(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "logistic", "algorithm": "trish",
                                "wat": 1}))
    with pytest.raises(ValueError):
        main(["run", "--config", str(path)])


@pytest.mark.parametrize("old", [None, "1 1:1\n"])
def test_failed_convert_leaves_output_untouched(tmp_path, old):
    src = tmp_path / "table.csv"
    src.write_text("1,2\n3,4\n5\n")
    dst = tmp_path / "out.libsvm"
    if old:
        dst.write_text(old)
    with pytest.raises(ValueError, match="^line 3: "):
        main(["convert", "--csv", str(src), "--libsvm", str(dst)])
    assert {p.name for p in tmp_path.iterdir()} == {"table.csv"} | ({dst.name} if old else set())
    if old:
        assert dst.read_text() == old


def test_readme_commands_parse():
    """Every `trish ...` line of a README bash block is a command the parser takes."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^ *```bash\n(.*?)^ *```", readme, re.M | re.S)
    commands = [line.strip() for block in blocks for line in block.splitlines()
                if line.strip().startswith("trish ")]
    assert any(c.startswith("trish calibrate-g ") for c in commands)
    for command in commands:
        argv = shlex.split(command.split("#", 1)[0])[1:]
        build_parser().parse_args(argv)
