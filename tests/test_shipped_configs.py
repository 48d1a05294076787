"""Every shipped reference config runs with all pass flags true, and its
CSV keeps its recorded bytes."""

import hashlib
import json
import pathlib

import pytest
from click.testing import CliRunner

import entrokit as ek
from entrokit.cli import main

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


# sha256 of the embed-check stdout, and of the CSV of one 3-D expectation
# chain: together they pin the quadrature bits at d = 1 and d = 3
EMBED_CHECK_STDOUT_SHA256 = (
    "bab9b185b81e3835d55f43869581c96b8f1153cb3a132f8586ec71898d1b3c23")
CHAIN_3D_CSV_SHA256 = (
    "01aab920822d15fae27e902833980a1285f702a75c5b25ca0a6d151a5a7bffa4")


def test_shipped_embed_check_stdout_digest():
    res = CliRunner().invoke(
        main, ["embed-check", "--config", str(CONFIG_DIR / "embed-check.json")])
    assert res.exit_code == 0, res.output
    assert (hashlib.sha256(res.output.encode()).hexdigest()
            == EMBED_CHECK_STDOUT_SHA256)


def test_three_dimensional_chain_csv_digest():
    cfg = {"schema_version": 1, "experiment": "expectation-chain", "seed": 11,
           "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 64, "law": "gaussian"},
           "p": 2, "dim": 3, "cells": 2, "grid_res": 16, "mc_samples": 2000}
    table = ek.run_experiment(cfg)
    assert table.all_passed
    assert (hashlib.sha256(table.to_csv_bytes()).hexdigest()
            == CHAIN_3D_CSV_SHA256)


# sha256 of the CSV of a 16-pair expectation chain (the benchmark's
# known-seed3 shape): every pair's Monte-Carlo stream is drawn ahead on
# worker threads, so this pins that those draws keep their bits
CHAIN_16_PAIRS_CSV_SHA256 = (
    "c12968e7d103e1c91b93cfec5d99bfb36af2a75f8a4599f0bca7ea6c0de1556a")


def test_sixteen_pair_chain_csv_digest():
    cfg = {"schema_version": 1, "experiment": "expectation-chain", "seed": 3,
           "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 64, "law": "gaussian"},
           "p": 1, "dim": 2, "cells": 4, "grid_res": 24, "mc_samples": 20000}
    table = ek.run_experiment(cfg)
    assert len(table.rows) == 16
    assert (hashlib.sha256(table.to_csv_bytes()).hexdigest()
            == CHAIN_16_PAIRS_CSV_SHA256)


# sha256 of the CSV of 3-D expectation chains in the benchmark's chain3d
# shape (J 64, cells 2, grid 16, 20,000 samples): their quadratures run
# while the Monte-Carlo streams are drawn, and most of each pair's lines
# are zero, so this pins that neither changes a bit
CHAIN3D_CSV_SHA256 = {
    1: "2d2b3d25fc9470e4922578d5e93109df0f05833af28ff989c534ef5f19881a39",
    2: "ced9590cfd71cd5b2fcfdc2ec0ca7b36426e91f49d4c93ed030f014c8ad2f67a",
}


@pytest.mark.parametrize("p", sorted(CHAIN3D_CSV_SHA256))
def test_chain3d_shape_csv_digest(p):
    cfg = {"schema_version": 1, "experiment": "expectation-chain", "seed": 0,
           "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 64, "law": "uniform"},
           "p": p, "dim": 3, "cells": 2, "grid_res": 16, "mc_samples": 20000}
    table = ek.run_experiment(cfg)
    assert len(table.rows) == 3
    assert (hashlib.sha256(table.to_csv_bytes()).hexdigest()
            == CHAIN3D_CSV_SHA256[p])
