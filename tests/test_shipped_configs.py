"""Every shipped reference config runs with all pass flags true, and its
CSV keeps its recorded bytes."""

import hashlib
import json
import pathlib

import pytest

import entrokit as ek

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

CHAIN_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json")
                       if p.name != "embed-check.json")

# sha256 of to_csv_bytes(); a value changes only with a stated reason
CSV_SHA256 = {
    "bits-hat.json":
        "d9978746d5c12d1e6efd4b65da5212014c861e9a297128f9b70c904c0dfe2dec",
    "expectation-d1.json":
        "8bce5bc67b43306b9584cecd8c0da113b821aa5f937ae392ecf2c5189762e036",
    "expectation-d2-select.json":
        "d14628f3c139b17f448b8dd9beeb72792fbb02340e62b127c19cff93d55fc939",
    "uniform-circle8.json":
        "4496678407706011ec305c2adbadf0af6c8ec7288344edbca7baa76fac7d39f7",
    "uniform-random10.json":
        "5d80a089999f396708536be47e6baf295505c73056cf369f14ba2c673335a36b",
}


@pytest.mark.parametrize("path", CHAIN_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_passes(path):
    cfg = ek.load_config(path)
    table = ek.run_experiment(cfg)
    assert table.all_passed
    assert table.rows


@pytest.mark.parametrize("path", CHAIN_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_reruns_identically(path):
    cfg = ek.load_config(path)
    assert (ek.run_experiment(cfg).to_csv_bytes()
            == ek.run_experiment(cfg).to_csv_bytes())


def test_every_shipped_chain_config_has_a_digest():
    assert sorted(CSV_SHA256) == [p.name for p in CHAIN_CONFIGS]


@pytest.mark.parametrize("path", CHAIN_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_csv_digest(path):
    csv = ek.run_experiment(ek.load_config(path)).to_csv_bytes()
    assert hashlib.sha256(csv).hexdigest() == CSV_SHA256[path.name]


def test_shipped_embed_check_config():
    cfg = json.loads((CONFIG_DIR / "embed-check.json").read_text())
    measure = ek.KLMeasure.from_config(cfg["kl"])
    f = ek.GridFunction01.from_callable(
        lambda x: x[:, 0], 1, cfg["f"]["grid_res"], lipschitz=1.0)
    rep = ek.isometry_check(f, measure, cfg["p"], cfg["samples"], cfg["seed"])
    assert rep.consistent
