"""CLI surface: subcommands, JSON/CSV outputs, exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import entrokit as ek
from entrokit.cli import main
from entrokit.errors import read_json
from entrokit.rng import stream


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def space_file(tmp_path):
    path = tmp_path / "line4.json"
    path.write_text(json.dumps(ek.FiniteMetricSpace.line(4).to_json()))
    return str(path)


def test_codelength(runner, space_file):
    res = runner.invoke(main, ["codelength", "--space", space_file,
                               "--eps", "0.5"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out == {"N": 4, "H": 2.0, "B": 2}


@pytest.mark.parametrize("decoder", ["ambient", "restricted", "both"])
def test_codelength_has_no_decoder_option(runner, space_file, decoder):
    # the command covers the whole space with itself, where both decoders
    # give the same B, so the option could not change the report
    res = runner.invoke(main, ["codelength", "--space", space_file,
                               "--eps", "0.5", "--decoder", decoder])
    assert res.exit_code == 2 and "No such option" in res.output


def test_gv_command(runner):
    res = runner.invoke(main, ["gv", "--n", "8"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["size"] >= 3 and out["measured_min_distance"] >= 2
    assert out["words"][0] == "+" * 8


def test_gv_command_length_forty(runner):
    res = runner.invoke(main, ["gv", "--n", "40"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert len(out["words"]) == 149 and out["measured_min_distance"] >= 10


@pytest.mark.parametrize("args", [
    ["gv", "--n", "8"],
    ["bump", "--d", "1", "--n", "4", "--grid", "16"],
    ["hat", "--space", None, "--eps", str(1 / 6)],
])
def test_out_file_is_the_printed_manifest(runner, tmp_path, space_file, args):
    args = [space_file if a is None else a for a in args]
    out_path = tmp_path / "manifest.json"
    res = runner.invoke(main, args + ["--out", str(out_path)])
    assert res.exit_code == 0
    assert out_path.read_text(encoding="utf-8") == res.output
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


def test_hat_command(runner, tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(ek.FiniteMetricSpace.circle(8).to_json()))
    res = runner.invoke(main, ["hat", "--space", str(path), "--eps",
                               str(1 / 6)])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["n_centers"] == 8 and out["verification"]["ok"]


def test_bump_command(runner):
    res = runner.invoke(main, ["bump", "--d", "1", "--n", "4", "--grid", "16"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["verification"]["ok"]


def test_fno_command(runner, tmp_path):
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1, activation="identity")
    (tmp_path / "hyper.json").write_text(json.dumps(hyper.to_json()))
    params = ek.FnoParams.random(hyper, 1.0, stream(2, 8))
    ek.fno.save_theta(params, tmp_path / "theta.bin")
    u = ek.random_grid_function(1, 8, 1, stream(3, 7))
    (tmp_path / "input.json").write_text(json.dumps(u.to_json()))
    res = runner.invoke(main, ["fno", "--hyper", str(tmp_path / "hyper.json"),
                               "--params", str(tmp_path / "theta.bin"),
                               "--input", str(tmp_path / "input.json")])
    assert res.exit_code == 0
    assert float(res.output) == pytest.approx(ek.forward(params, u))


def test_quantize_command(runner, tmp_path):
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1)
    (tmp_path / "hyper.json").write_text(json.dumps(hyper.to_json()))
    res = runner.invoke(main, ["quantize", "--hyper",
                               str(tmp_path / "hyper.json"), "--delta", "0.01",
                               "--m", "1.0", "--seed", "7"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["passed"] and out["measured_err"] <= out["bound"]


def test_embed_check_command(runner, tmp_path):
    cfg = {"kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
           "f": {"kind": "coordinate", "grid_res": 16},
           "p": 2, "samples": 20000, "seed": 5}
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["embed-check", "--config", str(path)])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["consistent"] and abs(out["zscore"]) <= 3


def test_embed_check_exits_one_when_the_isometry_gate_fails(
        runner, tmp_path, monkeypatch):
    # embed-check reports and exits on IsometryReport.consistent, the gate
    # the expectation chain's rows also pass through
    cfg = {"kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
           "f": {"kind": "coordinate", "grid_res": 16},
           "p": 2, "samples": 20000, "seed": 5}
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(ek.IsometryReport, "consistent",
                        property(lambda self: False))
    res = runner.invoke(main, ["embed-check", "--config", str(path)])
    assert res.exit_code == 1
    out = json.loads(res.output)
    assert out["consistent"] is False and abs(out["zscore"]) <= 3


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_reports_print_standard_json(runner, tmp_path):
    # a constant of 1e308 overflows the moments to inf and the z-score to
    # NaN; each non-finite value prints as null, and the exit status still
    # carries the verdict
    cfg = {"kl": {"lambda": "j^-2a", "alpha": 1e-300, "J": 3,
                  "law": "gaussian"},
           "p": 1, "samples": 100, "seed": 0,
           "f": {"kind": "constant", "value": 1e308}}
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["embed-check", "--config", str(path)])
    assert res.exit_code == 1
    out = json.loads(res.output, parse_constant=_refuse_constant)
    assert out["consistent"] is False
    assert None in out.values()
    assert all(value is None or math.isfinite(value) for key, value
               in out.items() if key != "consistent")


def test_embed_check_seed_zero_overrides_config(runner, tmp_path):
    # --seed 0 is a seed like any other, not "no seed given"
    cfg = {"kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
           "f": {"kind": "coordinate", "grid_res": 16},
           "p": 2, "samples": 2000}
    reports = {}
    for name, seed, override in (("cfg0", 0, []), ("cfg5", 5, []),
                                 ("cli0", 5, ["--seed", "0"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, seed=seed)))
        res = runner.invoke(main, ["embed-check", "--config", str(path)]
                            + override)
        assert res.exit_code == 0
        reports[name] = json.loads(res.output)
    assert reports["cfg0"] != reports["cfg5"]
    assert reports["cli0"] == reports["cfg0"]


EMBED_CFG = {"kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
             "f": {"kind": "coordinate", "grid_res": 16},
             "p": 2, "samples": 2000, "seed": 5}


@pytest.mark.parametrize("cfg", [
    dict(EMBED_CFG, rogue=1),
    {k: v for k, v in EMBED_CFG.items() if k != "kl"},
    dict(EMBED_CFG, f={"kind": "sine"}),
    dict(EMBED_CFG, f={"grid_res": 16}),
    dict(EMBED_CFG, kl=dict(EMBED_CFG["kl"], extra=1)),
    dict(EMBED_CFG, samples=10),
    dict(EMBED_CFG, p=0.5),
    dict(EMBED_CFG, seed=-1),
    dict(EMBED_CFG, f={"kind": "coordinate", "value": 2.0}),
    dict(EMBED_CFG, f={"kind": "constant", "grid_res": 16}),
], ids=["rogue-key", "no-kl", "f-kind", "f-without-kind", "kl-rogue-key",
        "few-samples", "p-below-one", "negative-seed", "coordinate-value",
        "constant-grid-res"])
def test_embed_check_config_is_validated(runner, tmp_path, cfg):
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ek.ConfigError) as err:
        ek.chains.run_embed_check(cfg)
    res = runner.invoke(main, ["embed-check", "--config", str(path)])
    assert res.exit_code == 2
    assert "--config" in res.output and str(err.value) in res.output


def test_embed_check_config_needs_no_schema_version():
    shipped = read_json(pathlib.Path(__file__).resolve().parent.parent
                        / "configs" / "embed-check.json")
    assert "schema_version" not in shipped
    assert ek.chains.run_embed_check(dict(shipped, samples=2000)).consistent
    constant = dict(EMBED_CFG, f={"kind": "constant", "value": 2.0})
    assert ek.chains.run_embed_check(constant).quad_moment == 4.0


def test_embed_check_seed_on_a_config_that_is_no_object(runner, tmp_path):
    # --seed applies to an object only; anything else is a config error
    path = tmp_path / "list.json"
    path.write_text(json.dumps([EMBED_CFG]))
    res = runner.invoke(main, ["embed-check", "--config", str(path),
                               "--seed", "3"])
    assert res.exit_code == 2, res.exception
    assert "--config" in res.output and "is not of type 'object'" in res.output


@pytest.mark.parametrize("command", ["chain-uniform", "embed-check"])
def test_malformed_json_config_is_a_config_error(runner, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "experiment": ')
    with pytest.raises(ek.ConfigError):
        read_json(path)
    res = runner.invoke(main, [command, "--config", str(path)])
    assert res.exit_code == 2
    assert "--config" in res.output and "not valid JSON" in res.output


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_constants_are_config_errors(runner, tmp_path,
                                                     constant):
    # json.load reads these; every numeric bound of a schema is false for
    # NaN, which would then reach the solvers
    path = tmp_path / "nan.json"
    path.write_text('{"schema_version": 1, "experiment": "uniform-chain", '
                    '"seed": 7, "space": {"kind": "circle", "n": 8}, '
                    '"eps_ladder": [%s]}' % constant)
    with pytest.raises(ek.ConfigError, match=re.escape(str(path))):
        read_json(path)
    res = runner.invoke(main, ["chain-uniform", "--config", str(path)])
    assert res.exit_code == 2, res.exception
    assert "--config" in res.output and f"{constant} is not a JSON number" in res.output


def _uniform_line(tmp_path, n, spacing):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "schema_version": 1, "experiment": "uniform-chain", "seed": 7,
        "space": {"kind": "line", "n": n, "spacing": spacing},
        "eps_ladder": [1 / 6]}))
    return path


def test_chain_uniform_runs_on_lines_whose_sums_round(runner, tmp_path):
    # from 11 points on, this spacing breaks the triangle inequality by
    # rounding by more than an absolute 1e-12
    res = runner.invoke(main, ["chain-uniform", "--config",
                               str(_uniform_line(tmp_path, 16, 33333.333333333336))])
    assert res.exit_code == 0, res.exception
    # every one of 20 points is a hat center at every eps up to 1/3
    res = runner.invoke(main, ["chain-uniform", "--config",
                               str(_uniform_line(tmp_path, 20, 33333.333333333336))])
    assert res.exit_code == 2, res.exception
    assert "--config" in res.output and "2^20 members exceeds" in res.output


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_chain_uniform_on_a_line_that_overflows_is_a_usage_error(runner,
                                                                 tmp_path):
    res = runner.invoke(main, ["chain-uniform", "--config",
                               str(_uniform_line(tmp_path, 20, 1e307))])
    assert res.exit_code == 2, res.exception
    assert "--config" in res.output and "non-finite" in res.output


@pytest.mark.parametrize("seed", ["-1", str(2**63)])
@pytest.mark.parametrize("command", ["quantize", "embed-check", "sweep",
                                     "chain-uniform", "chain-expectation"])
def test_seed_range_is_enforced_by_the_cli(runner, tmp_path, seed, command):
    hyper = ek.FnoHyper(1, 1, 1, 1, 1, 1)
    (tmp_path / "hyper.json").write_text(json.dumps(hyper.to_json()))
    if command == "quantize":
        args = ["--hyper", str(tmp_path / "hyper.json"), "--delta", "0.01",
                "--m", "1.0", "--n-inputs", "2", "--probes", "100"]
    else:  # the range is checked before the config is read
        args = ["--config", str(tmp_path / "hyper.json")]
    res = runner.invoke(main, [command] + args + ["--seed", seed])
    assert res.exit_code == 2
    assert "--seed" in res.output


HYPER = {"dim": 1, "d_in": 1, "d_out": 1, "d_c": 1, "kappa": 1, "depth": 1}


@pytest.mark.parametrize("hyper", [
    dict(HYPER, activaton="relu"),
    dict(HYPER, d_c=1.0),
    dict(HYPER, d_in=2),
    [HYPER],
], ids=["misspelt-key", "integral-float", "d_c-below-d_in", "not-an-object"])
@pytest.mark.parametrize("command", ["fno", "quantize"])
def test_hyper_files_are_validated(runner, tmp_path, hyper, command):
    path = str(tmp_path / "hyper.json")
    (tmp_path / "hyper.json").write_text(json.dumps(hyper))
    if command == "fno":
        args = ["fno", "--hyper", path, "--params", path, "--input", path]
    else:
        args = ["quantize", "--hyper", path, "--delta", "0.01", "--m", "1.0",
                "--n-inputs", "2", "--probes", "100"]
    with pytest.raises(ek.ConfigError):
        ek.chains.load_hyper(path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "--hyper" in res.output


@pytest.mark.parametrize("params", ["eight-bytes", "hyper-json"])
def test_fno_params_of_the_wrong_size_are_usage_errors(runner, tmp_path,
                                                       params):
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps(HYPER))
    u = ek.random_grid_function(1, 8, 1, stream(3, 7))
    (tmp_path / "input.json").write_text(json.dumps(u.to_json()))
    theta = tmp_path / "theta.bin"
    theta.write_bytes(bytes(8))
    res = runner.invoke(main, [
        "fno", "--hyper", str(hyper),
        "--params", str(theta if params == "eight-bytes" else hyper),
        "--input", str(tmp_path / "input.json")])
    assert res.exit_code == 2
    assert "--params" in res.output


def _quantize(**opts):
    args = {"--delta": "0.01", "--m": "1.0", "--n-inputs": "2",
            "--probes": "100"}
    args.update(opts)
    return ["quantize", "--hyper", None] + [x for kv in args.items() for x in kv]


@pytest.mark.parametrize("args,option", [
    (["gv", "--n", "3"], "--n"),
    (["gv", "--n", "65"], "--n"),
    (["bump", "--d", "4", "--n", "2", "--grid", "16"], "--d"),
    (["bump", "--d", "1", "--n", "1", "--grid", "16"], "--n"),
    (_quantize(**{"--probes": "10"}), "--probes"),
    (_quantize(**{"--n-inputs": "0"}), "--n-inputs"),
    (_quantize(**{"--delta": "-0.1"}), "--delta"),
    (_quantize(**{"--delta": "0"}), "--delta"),
    (_quantize(**{"--m": "0"}), "--m"),
    (_quantize(**{"--delta": "2.5"}), "--delta"),
    (_quantize(**{"--delta": "nan"}), "--delta"),
    (_quantize(**{"--m": "nan"}), "--m"),
    (_quantize(**{"--m": "inf"}), "--m"),
    (_quantize(**{"--c": "-1"}), "--c"),
    (_quantize(**{"--c": "inf"}), "--c"),
    (_quantize(**{"--m": "1e200", "--delta": "1e199"}), "--m"),
    (_quantize(**{"--m": "1", "--delta": "0.1", "--c": "1e308"}), "--c"),
    (_quantize(**{"--m": "1e308", "--delta": "1e307", "--c": "1"}), "--m"),
    (_quantize(**{"--m": "1e100", "--delta": "1e99"}), "--delta"),
    (_quantize(**{"--m": "1e100", "--delta": "1e-10"}), "--delta"),
    (["codelength", "--space", None, "--eps", "0"], "--eps"),
    (["codelength", "--space", None, "--eps", "-1"], "--eps"),
    (["codelength", "--space", None, "--eps", "nan"], "--eps"),
    (["hat", "--space", None, "--eps", "0"], "--eps"),
    (["hat", "--space", None, "--eps", "-1"], "--eps"),
    (["hat", "--space", None, "--eps", "nan"], "--eps"),
    (["hat", "--space", None, "--eps", "0.5"], "--eps"),
], ids=["gv-n-3", "gv-n-65", "bump-d-4", "bump-n-1", "probes-10",
        "n-inputs-0", "negative-delta", "zero-delta", "zero-m",
        "delta-above-2m", "nan-delta", "nan-m", "infinite-m", "negative-c",
        "infinite-c", "overflowing-m", "overflowing-c",
        "infinite-bound", "overflowing-certified-bound",
        "grid-over-2^63-points",
        "codelength-zero-eps", "codelength-negative-eps",
        "codelength-nan-eps", "hat-zero-eps", "hat-negative-eps",
        "hat-nan-eps", "hat-eps-above-a-third"])
def test_cli_numbers_out_of_range_are_usage_errors(runner, tmp_path, args,
                                                   option):
    # None stands for the file the subcommand reads: a space or a hyper
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ek.FiniteMetricSpace.line(4).to_json()
                               if args[0] in ("codelength", "hat") else HYPER))
    args = [str(path) if a is None else a for a in args]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert option in res.output



@pytest.mark.parametrize("grid,message", [
    ({"m": 1.0, "delta": 1e-300}, "more than 2^63 points"),
    ({"m": 1.0, "delta": 3.0}, "need 0 < delta <= 2 M"),
], ids=["over-2^63-points", "delta-above-2m"])
def test_sweep_grids_that_cannot_exist_are_usage_errors(runner, tmp_path,
                                                        grid, message):
    cfg = {"schema_version": 1, "experiment": "bits-accuracy", "seed": 1,
           "targets": {"kind": "singleton-constant"},
           "hypers": [dict(HYPER, depth=2)], "grids": [grid]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["sweep", "--config", str(path)])
    assert res.exit_code == 2
    assert "--config" in res.output and message in res.output

@pytest.mark.parametrize("opts,hint", [
    ({"--m": "1e100", "--delta": "1e99"}, "'--m' / '--delta':"),
    ({"--m": "1", "--delta": "0.1", "--c": "1e308"},
     "'--m' / '--delta' / '--c':"),
    ({"--m": "1e308", "--delta": "1e307", "--c": "1"},
     "'--m' / '--delta' / '--c':"),
], ids=["certified-overflows", "c-overflows", "infinite-lip"])
def test_quantize_refuses_an_overflowing_bound_before_drawing(
        runner, tmp_path, monkeypatch, opts, hint):
    # one message for the certified bound Lip * delta / 2, an infinite Lip
    # included, given before the parameter vector is drawn from the box
    def no_draw(*args, **kwargs):
        raise AssertionError("a parameter vector was drawn")

    monkeypatch.setattr("entrokit.cli.stream", no_draw)
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(HYPER))
    args = _quantize(**opts)
    res = runner.invoke(main, [str(path) if a is None else a for a in args])
    assert res.exit_code == 2, res.output
    assert hint in res.output and "certified bound" in res.output


def test_quantize_a_large_finite_box_runs(runner, tmp_path):
    # (2 d_c M)^(L+2) = 8e150, the bound 2^503.4 and the certified bound
    # 2^503.4 * delta / 2 still fit in a float
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(HYPER))
    args = _quantize(**{"--m": "1e50", "--delta": "1e40"})
    res = runner.invoke(main, [str(path) if a is None else a for a in args])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["log2_lip_bound"] == pytest.approx(503.37, abs=0.01)
    assert report["passed"] is True


@pytest.mark.parametrize("args,option", [
    (["bump", "--d", "1", "--n", "100", "--grid", "800"], "--n"),
    (["bump", "--d", "1", "--n", "4", "--grid", "16", "--lam", "2"], "--lam"),
    (["bump", "--d", "1", "--n", "4", "--grid", "16", "--lam", "-1"], "--lam"),
    (["bump", "--d", "1", "--n", "4", "--grid", "16", "--lam", "nan"],
     "--lam"),
    (["bump", "--d", "1", "--n", "2", "--grid", "0"], "--grid"),
    (["bump", "--d", "1", "--n", "2", "--grid", "-4"], "--grid"),
    (["bump", "--d", "1", "--n", "2", "--grid", "-8"], "--grid"),
    (["bump", "--d", "1", "--n", "3", "--grid", "4"], "--grid"),
    (["bump", "--d", "1", "--n", "4", "--grid", "20"], "--grid"),
    (["bump", "--d", "2", "--n", "8", "--grid", "48"], "--n"),
    (["gv", "--n", "56"], "--n"),
    (["bump", "--d", "2", "--n", "9", "--grid", "10"], "--grid"),
    (["bump", "--d", "1", "--n", "10000", "--grid", "40000"], "--n"),
    (["bump", "--d", "1", "--n", "4", "--grid", "16", "--lam", "inf"],
     "--lam"),
], ids=["code-above-64", "lam-2", "lam-negative", "lam-nan", "grid-0",
        "grid-negative", "grid-negative-aligned", "grid-not-a-multiple",
        "breakpoints-off-grid", "coset-table-too-large", "gv-n-56",
        "grid-before-code-length", "code-whose-e^(n/8)-overflows",
        "lam-infinite"])
def test_bump_and_gv_inputs_that_cannot_run_are_usage_errors(
        runner, monkeypatch, args, option):
    # the coset tables of lengths 56 to 64 reach the limit only after
    # 2^27 entries; a small limit raises the same error at once
    monkeypatch.setattr(ek.packing, "LEXICODE_TABLE_LIMIT", 1 << 8)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.exception
    assert option in res.output


def test_bump_checks_its_grid_before_it_builds_the_code(runner, monkeypatch):
    # 52 cells need a 52-bit code, seconds of work; a misaligned grid is
    # refused first
    def no_code(n):
        raise AssertionError("the sign code was built")

    monkeypatch.setattr(ek.packing, "gilbert_varshamov", no_code)
    res = runner.invoke(main, ["bump", "--d", "1", "--n", "52", "--grid", "100"])
    assert res.exit_code == 2, res.exception
    assert "--grid" in res.output


def test_grids_above_the_bump_node_limit_are_usage_errors(runner, tmp_path):
    # 16001^3 nodes would need terabytes; both paths refuse them at once
    cfg = {"schema_version": 1, "experiment": "expectation-chain", "seed": 3,
           "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
           "p": 1, "dim": 3, "cells": 2, "grid_res": 16000, "mc_samples": 500}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    for args, option in (
            (["bump", "--d", "3", "--n", "2", "--grid", "16000"], "--grid"),
            (["chain-expectation", "--config", str(cfg_path)], "--config")):
        start = time.perf_counter()
        res = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == 2, res.exception
        assert option in res.output and "grid nodes" in res.output


@pytest.mark.parametrize("d,n,grid", [(1, 4, 32), (2, 2, 48), (3, 2, 16)])
def test_the_benchmark_bump_shapes_run(runner, d, n, grid):
    res = runner.invoke(main, ["bump", "--d", str(d), "--n", str(n),
                               "--grid", str(grid)])
    assert res.exit_code == 0, res.output


def test_chain_uniform_writes_csv_and_exits_zero(runner, tmp_path):
    cfg = {"schema_version": 1, "experiment": "uniform-chain", "seed": 7,
           "space": {"kind": "circle", "n": 8}, "eps_ladder": [1 / 6]}
    cfg_path = tmp_path / "uni.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "uni.csv"
    res = runner.invoke(main, ["chain-uniform", "--config", str(cfg_path),
                               "--out", str(out_path)])
    assert res.exit_code == 0
    header = out_path.read_text().splitlines()[0]
    assert header.startswith("eps,")


def test_chain_rerun_byte_identical(runner, tmp_path):
    cfg = {"schema_version": 1, "experiment": "expectation-chain", "seed": 3,
           "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
           "p": 1, "dim": 1, "cells": 2, "grid_res": 16, "mc_samples": 500}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        res = runner.invoke(main, ["chain-expectation", "--config",
                                   str(cfg_path), "--out", str(out_path)])
        assert res.exit_code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_chain_expectation_short_code_exits_one(runner, tmp_path,
                                                monkeypatch):
    cfg = {"schema_version": 1, "experiment": "expectation-chain", "seed": 3,
           "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
           "p": 1, "dim": 1, "cells": 2, "grid_res": 16, "mc_samples": 500}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    build = ek.chains.pk.gilbert_varshamov
    monkeypatch.setattr(ek.chains.pk, "gilbert_varshamov", lambda n: replace(
        build(n), target_size=build(n).size + 1))
    res = runner.invoke(main, ["chain-expectation", "--config", str(cfg_path),
                               "--out", str(tmp_path / "exp.csv")])
    assert res.exit_code == 1
    summary = json.loads(res.output[res.output.index("{"):])
    assert summary["metadata"]["code_size_ok"] is False
    assert summary["all_passed"] is False


_UNRUNNABLE_TABLES = {
    "chain-uniform": ({
        "schema_version": 1, "experiment": "uniform-chain", "seed": 7,
        "space": {"kind": "random", "n": 21, "dim": 2},
        "eps_ladder": [1 / 6]}, "exact cover limited to 20 points"),
    "chain-expectation": ({
        "schema_version": 1, "experiment": "expectation-chain", "seed": 3,
        "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 16, "law": "gaussian"},
        "p": 1, "dim": 2, "cells": 7, "grid_res": 50, "mc_samples": 500},
        "not a multiple of 7"),
    "sweep": ({
        "schema_version": 1, "experiment": "bits-accuracy", "seed": 5,
        "targets": {"kind": "singleton-constant", "value": 0.0},
        "hypers": [{"dim": 1, "d_in": 2, "d_out": 1, "d_c": 1, "kappa": 1,
                    "depth": 1}],
        "grids": [{"m": 1.0, "delta": 1.0}]}, "d_c"),
}


@pytest.mark.parametrize("command", sorted(_UNRUNNABLE_TABLES))
def test_library_errors_of_table_commands_are_usage_errors(runner, tmp_path,
                                                           command):
    cfg, message = _UNRUNNABLE_TABLES[command]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = runner.invoke(main, [command, "--config", str(cfg_path)])
    assert res.exit_code == 2, res.exception
    assert isinstance(res.exception, SystemExit)
    assert "--config" in res.output and message in res.output


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_sweep_with_no_rows_does_not_pass(runner, tmp_path):
    # forward overflows at m = delta = 1e300, so no cell has a finite error
    cfg = {"schema_version": 1, "experiment": "bits-accuracy", "seed": 5,
           "targets": {"kind": "singleton-constant", "value": 0.0},
           "hypers": [{"dim": 1, "d_in": 1, "d_out": 1, "d_c": 1, "kappa": 1,
                       "depth": 1, "activation": "identity"}],
           "grids": [{"m": 1e300, "delta": 1e300}]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["sweep", "--config", str(cfg_path)])
    assert res.exit_code == 1, res.exception
    summary = json.loads(res.output[res.output.index("{"):])
    assert summary["rows"] == 0 and summary["all_passed"] is False


def test_sweep_command_header(runner, tmp_path):
    cfg = {"schema_version": 1, "experiment": "bits-accuracy", "seed": 5,
           "targets": {"kind": "singleton-constant", "value": 0.0},
           "hypers": [{"dim": 1, "d_in": 1, "d_out": 1, "d_c": 1, "kappa": 1,
                       "depth": 1, "activation": "identity"}],
           "grids": [{"m": 1.0, "delta": 1.0}],
           "input_resolution": 8}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", "--config", str(cfg_path), "--out",
                               str(out_path)])
    assert res.exit_code == 0
    assert out_path.read_text().splitlines()[0] == \
        "bits,minimax_err,hyper_id,grid_id,seed"


def _limited_child(*args, limit=2 << 30,
                   code="from entrokit.cli import main; main()"):
    """(the finished child, seconds from import to exit) of one line of
    code, by default the CLI on args, in a child whose own address space
    is limited to `limit` bytes."""
    root = pathlib.Path(__file__).resolve().parent.parent
    child = ("import resource, sys, time\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
             "start = time.monotonic()\n"
             "try:\n"
             f"    {code}\n"
             "finally:\n"
             "    print(f'seconds {time.monotonic() - start}', file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", child, *map(str, args)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    seconds = float(re.search(r"seconds (\S+)", out.stderr).group(1))
    return out, seconds


@pytest.mark.parametrize("resolution", [2**21 + 1, 10**9])
def test_sweep_refuses_an_oversized_input_before_allocating(tmp_path,
                                                            resolution):
    # two levels at 10^9 nodes would take 7.45 GiB, which the child's own
    # 1 GiB address-space limit would turn into a MemoryError (exit 1);
    # 2^21 + 1 is one node per level past the budget
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = read_json(root / "configs" / "bits-hat.json")
    cfg["input_resolution"] = resolution
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    start = time.monotonic()
    out, _ = _limited_child("sweep", "--config", path, limit=1 << 30)
    assert out.returncode == 2, out.stderr
    assert (f"input_resolution {resolution} on 2 levels needs "
            f"{2 * resolution} input grid nodes, above the budget of "
            f"{ek.chains.INPUT_NODE_LIMIT}") in out.stderr
    assert time.monotonic() - start < 10


def _bits_hat_with(tmp_path, d_c):
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = read_json(root / "configs" / "bits-hat.json")
    cfg["hypers"][0]["d_c"] = d_c
    path = tmp_path / f"d_c{d_c}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("d_c,q", [
    # d_c 37 is the first past the budget; at 300 the 8.27 GiB index draw
    # was _ArrayMemoryError (exit 1), and at 100000 computing 3^q hung
    (37, 4218), (300, 270_900), (100_000, 30_000_300_000)])
def test_sweep_refuses_a_theta_matrix_past_its_budget(tmp_path, d_c, q):
    out, seconds = _limited_child("sweep", "--config",
                                  _bits_hat_with(tmp_path, d_c))
    assert out.returncode == 2, out.stderr
    assert (f"cell (0, 0) holds 4096 thetas of {q} parameters in "
            f"{8 * 4096 * q} bytes, above the budget of "
            f"{ek.fno.THETA_BYTE_BUDGET}") in out.stderr
    assert seconds < 1


def test_sweep_just_below_the_theta_budget_runs(tmp_path):
    # 4,096 x 3,996 thetas at d_c 36, 98% of the budget
    out, _ = _limited_child("sweep", "--config", _bits_hat_with(tmp_path, 36))
    assert 8 * 4096 * 3996 <= ek.fno.THETA_BYTE_BUDGET
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("n", [3345, 100_000])
def test_chain_uniform_refuses_a_circle_past_its_budget(tmp_path, n):
    # 100,000 points were _ArrayMemoryError (exit 1), 74.5 GiB; 3,345 is
    # the first past the budget
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "schema_version": 1, "experiment": "uniform-chain", "seed": 7,
        "space": {"kind": "circle", "n": n}, "eps_ladder": [0.2]}))
    out, seconds = _limited_child("chain-uniform", "--config", path)
    assert out.returncode == 2, out.stderr
    assert (f"{n} points hold {24 * n * n} bytes in their distance matrix "
            f"and its temporaries, above the budget of "
            f"{ek.metricspace.SPACE_BYTE_BUDGET}") in out.stderr
    assert seconds < 1


@pytest.mark.parametrize("make,n", [("circle", 3344), ("line", 4096)])
def test_spaces_just_below_their_budget_are_built(make, n):
    out, _ = _limited_child(code=(
        "from entrokit.metricspace import FiniteMetricSpace; "
        f"print(FiniteMetricSpace.{make}({n}).n)"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(n)


_MC_WORDS = ek.randomfield.MC_WORD_BUDGET
_MC_BYTES = ek.randomfield.MC_BYTE_BUDGET


def _huge_monte_carlo(command, key, value):
    """(subcommand, config) of a shipped config with one key replaced."""
    root = pathlib.Path(__file__).resolve().parent.parent
    name = "embed-check" if command == "embed-check" else "expectation-d1"
    cfg = read_json(root / "configs" / f"{name}.json")
    if key == "J":
        cfg["kl"] = dict(cfg["kl"], J=value)
    elif key == "one-column":
        cfg["kl"] = dict(cfg["kl"], J=1)
        cfg["samples"] = value
    else:
        cfg[key] = value
    return cfg


@pytest.mark.parametrize("command,key,value,words,held", [
    # 74.5 GiB, 149 GiB and a 763 MiB row block, which the child's own
    # 2 GiB address-space limit turned into _ArrayMemoryError (exit 1)
    ("embed-check", "samples", 10**10, 64 * 10**10, None),
    ("chain-expectation", "mc_samples", 10**10, 64 * 10**10, None),
    ("chain-expectation", "J", 10**8, 20_000 * 10**8, None),
    # one sample past each budget
    ("embed-check", "samples", _MC_WORDS // 64 + 1,
     64 * (_MC_WORDS // 64 + 1), None),
    ("embed-check", "one-column", _MC_BYTES // 16 + 1, None,
     16 * (_MC_BYTES // 16 + 1)),
])
def test_oversized_monte_carlo_is_refused_before_allocating(
        tmp_path, command, key, value, words, held):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_monte_carlo(command, key, value)))
    start = time.monotonic()
    out, _ = _limited_child(command, "--config", path)
    assert out.returncode == 2, out.stderr
    if words is not None:
        assert (f"coordinates draw {words} values per seed, above the "
                f"budget of {_MC_WORDS}") in out.stderr
    else:
        assert f"hold {held} bytes, above the budget of {_MC_BYTES}" \
            in out.stderr
    assert time.monotonic() - start < 10


_DEEP_Q = 4 * 10**8 + 2  # parameters of 1-D, d_c = kappa = 1, depth 10^8


@pytest.mark.parametrize("command", ["sweep", "fno", "quantize",
                                     "quantize --c"])
def test_a_deep_operator_is_refused_before_its_layout_is_built(tmp_path,
                                                               command):
    # at depth 10^8 each of these was MemoryError (exit 1) under the
    # child's 2 GiB limit, in _storage's 3 * 10^8 blocks
    hyper = tmp_path / "deep.json"
    hyper.write_text(json.dumps(ek.FnoHyper(1, 1, 1, 1, 1, 10**8).to_json()))
    q = _DEEP_Q
    wanted = (f"depth {10**8} is above the budget of {ek.fno.DEPTH_LIMIT} "
              "layers")
    if command == "sweep":
        cfg = read_json(pathlib.Path(__file__).resolve().parent.parent
                        / "configs" / "bits-hat.json")
        cfg["hypers"][0]["depth"] = 10**8
        (tmp_path / "sweep.json").write_text(json.dumps(cfg))
        args = ["sweep", "--config", tmp_path / "sweep.json"]
    elif command == "fno":
        (tmp_path / "theta.bin").write_bytes(bytes(8))
        u = ek.random_grid_function(1, 8, 1, stream(3, 7))
        (tmp_path / "input.json").write_text(json.dumps(u.to_json()))
        args = ["fno", "--hyper", hyper, "--params", tmp_path / "theta.bin",
                "--input", tmp_path / "input.json"]
        wanted = f"needs {q} float64 values ({8 * q} bytes)"
    else:
        args = ["quantize", "--hyper", hyper, "--m", "0.5", "--delta", "0.5"]
        if command == "quantize --c":
            args += ["--c", "1"]
    out, seconds = _limited_child(*args)
    assert out.returncode == 2, out.stderr
    assert wanted in out.stderr
    assert seconds < 1


@pytest.mark.parametrize("d_c,depth,args,code", [
    # 128 probe pairs of d_c 147 hold 99.6% of the theta budget, d_c 148
    # pass it; a random theta at the depth budget, and one layer past it
    (147, 1, [], 0), (148, 1, [], 2),
    (1, ek.fno.DEPTH_LIMIT, ["--c", "1"], 0),
    (1, ek.fno.DEPTH_LIMIT + 1, ["--c", "1"], 2)])
def test_quantize_runs_up_to_its_budgets(tmp_path, d_c, depth, args, code):
    hyper = tmp_path / "hyper.json"
    h = ek.FnoHyper(1, 1, 1, d_c, 1, depth)
    hyper.write_text(json.dumps(h.to_json()))
    out, seconds = _limited_child("quantize", "--hyper", hyper, "--m", "0.5",
                                  "--delta", "0.5", "--n-inputs", "1", *args)
    assert out.returncode == code, out.stderr
    if code == 2:
        assert "above the budget of" in out.stderr
        assert seconds < 1


def test_quantize_calibrates_a_wide_shallow_operator(tmp_path):
    # 2,208 parameters: 128 probe pairs hold 4.5 MB of thetas
    h = ek.FnoHyper(2, 1, 1, 8, 2, 2)
    assert ek.fno.layout_length(h) == 2208
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps(h.to_json()))
    out, _ = _limited_child("quantize", "--hyper", hyper, "--m", "0.5",
                            "--delta", "0.5")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["passed"] is True


@pytest.mark.parametrize("grid_res,code", [
    # 10^9 took 7.45 GiB, _ArrayMemoryError (exit 1) under the child's
    # 2 GiB limit; 2^22 - 1 is the last within the budget
    (2**22 - 1, 0), (2**22, 2), (10**9, 2)])
def test_embed_check_refuses_a_grid_past_its_node_budget(tmp_path, grid_res,
                                                         code):
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = read_json(root / "configs" / "embed-check.json")
    cfg["f"] = {"kind": "coordinate", "grid_res": grid_res}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    out, seconds = _limited_child("embed-check", "--config", path)
    assert out.returncode == code, out.stderr
    if code == 2:
        assert (f"f.grid_res {grid_res} needs {grid_res + 1} grid nodes, "
                f"above the budget of {ek.chains.INPUT_NODE_LIMIT}"
                in out.stderr)
        assert seconds < 1


def test_table_seed_override(runner, tmp_path):
    # --seed runs the table as a config holding that seed would
    cfg = {"schema_version": 1, "experiment": "uniform-chain", "seed": 7,
           "space": {"kind": "random", "n": 10, "dim": 2},
           "eps_ladder": [0.2]}
    runs = {}
    for name, seed, override in (("cli", 7, ["--seed", "99"]),
                                 ("cfg", 99, [])):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(dict(cfg, seed=seed)))
        out_path = tmp_path / f"{name}.csv"
        res = runner.invoke(main, ["chain-uniform", "--config", str(cfg_path),
                                   "--out", str(out_path)] + override)
        assert res.exit_code == 0
        summary = json.loads(res.output[res.output.index("{"):])
        assert summary["metadata"]["seed"] == 99
        runs[name] = out_path.read_bytes()
    assert runs["cli"] == runs["cfg"]


def test_bad_config_fails(runner, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"schema_version": 1,
                                    "experiment": "uniform-chain", "seed": 1,
                                    "space": {"kind": "circle", "n": 8},
                                    "eps_ladder": [1 / 6], "rogue": 1}))
    res = runner.invoke(main, ["chain-uniform", "--config", str(cfg_path)])
    assert res.exit_code != 0


LINE2 = {"points": [0, 1], "dist": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("space", [
    {"points": [0, 1]},
    [[0.0, 1.0], [1.0, 0.0]],
    dict(LINE2, dist=[[0.0, 1.0], [1.0]]),
    dict(LINE2, dist=[[0.0, -1.0], [-1.0, 0.0]]),
    dict(LINE2, distance=LINE2["dist"]),
], ids=["no-dist", "a-list", "ragged-dist", "negative-dist", "unknown-key"])
@pytest.mark.parametrize("command", ["hat", "codelength"])
def test_malformed_space_files_are_usage_errors(runner, tmp_path, space,
                                                command):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    with pytest.raises(ek.ConfigError):
        ek.FiniteMetricSpace.from_file(path)
    res = runner.invoke(main, [command, "--space", str(path), "--eps", "0.5"])
    assert res.exit_code == 2
    assert "--space" in res.output


def test_space_file_that_is_not_json_is_a_usage_error(runner, tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"points": [0, 1], "dist": ')
    res = runner.invoke(main, ["hat", "--space", str(path), "--eps", "0.5"])
    assert res.exit_code == 2
    assert "--space" in res.output


GRID8 = {"dim": 1, "resolution": 8, "channels": 1, "values": [0.5] * 8}


@pytest.mark.parametrize("grid", [
    {k: v for k, v in GRID8.items() if k != "channels"},
    dict(GRID8, values=[0.5] * 7),
    [GRID8],
    dict(GRID8, values=[0.5] * 7 + [float("nan")]),
    dict(GRID8, resolution=8.0),
    dict(GRID8, values="0.5"),
], ids=["no-channels", "seven-values", "a-list", "nan-value",
        "float-resolution", "values-not-a-list"])
def test_malformed_grid_files_are_usage_errors(runner, tmp_path, grid):
    with pytest.raises(ek.ConfigError):
        ek.GridFunction.from_json(grid)
    hyper = tmp_path / "hyper.json"
    hyper.write_text(json.dumps(HYPER))
    params = ek.FnoParams.zeros(ek.FnoHyper(**HYPER))
    ek.fno.save_theta(params, tmp_path / "theta.bin")
    (tmp_path / "input.json").write_text(json.dumps(grid))
    res = runner.invoke(main, ["fno", "--hyper", str(hyper),
                               "--params", str(tmp_path / "theta.bin"),
                               "--input", str(tmp_path / "input.json")])
    assert res.exit_code == 2
    assert "--input" in res.output


def _out_cases(tmp_path, space_file):
    (tmp_path / "hyper.json").write_text(json.dumps(HYPER))
    hyper = ek.FnoHyper(**HYPER)
    ek.fno.save_theta(ek.FnoParams.random(hyper, 1.0, stream(2, 8)),
                      tmp_path / "theta.bin")
    u = ek.random_grid_function(1, 8, 1, stream(3, 7))
    (tmp_path / "input.json").write_text(json.dumps(u.to_json()))
    (tmp_path / "emb.json").write_text(json.dumps(EMBED_CFG))
    return {
        "codelength": ["codelength", "--space", space_file, "--eps", "0.5"],
        "embed-check": ["embed-check", "--config", str(tmp_path / "emb.json")],
        "quantize": ["quantize", "--hyper", str(tmp_path / "hyper.json"),
                     "--delta", "0.01", "--m", "1.0", "--n-inputs", "2",
                     "--probes", "100"],
        "fno": ["fno", "--hyper", str(tmp_path / "hyper.json"),
                "--params", str(tmp_path / "theta.bin"),
                "--input", str(tmp_path / "input.json")],
    }


@pytest.mark.parametrize("command", ["codelength", "embed-check", "quantize",
                                     "fno"])
def test_out_file_is_the_printed_text(runner, tmp_path, space_file, command):
    args = _out_cases(tmp_path, space_file)[command]
    out_path = tmp_path / "out.txt"
    res = runner.invoke(main, args + ["--out", str(out_path)])
    assert res.exit_code == 0
    assert out_path.read_text(encoding="utf-8") == res.output
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


@pytest.mark.parametrize("grid", [
    {"dim": 2, "resolution": 8, "channels": 1, "values": [0.0] * 64},
    {"dim": 1, "resolution": 8, "channels": 2, "values": [0.0] * 16},
    {"dim": 1, "resolution": 3, "channels": 1, "values": [0.0] * 3},
], ids=["other-dim", "channels-not-d_in", "below-two-kappa"])
def test_fno_inputs_that_do_not_fit_the_hyper_are_usage_errors(
        runner, tmp_path, grid):
    hyper = ek.FnoHyper(**dict(HYPER, kappa=2))
    (tmp_path / "hyper.json").write_text(json.dumps(hyper.to_json()))
    ek.fno.save_theta(ek.FnoParams.zeros(hyper), tmp_path / "theta.bin")
    (tmp_path / "input.json").write_text(json.dumps(grid))
    ek.GridFunction.from_json(grid)  # a well-formed grid
    res = runner.invoke(main, ["fno", "--hyper", str(tmp_path / "hyper.json"),
                               "--params", str(tmp_path / "theta.bin"),
                               "--input", str(tmp_path / "input.json")])
    assert res.exit_code == 2
    assert "--input" in res.output


def test_fno_refuses_an_input_the_operator_overflows_on(runner, tmp_path):
    # finite values near the top of the float range overflow the grid
    # path's sums to -inf; the command refuses the input, and numpy's
    # overflow warnings stay silent
    hyper = ek.FnoHyper(**dict(HYPER, activation="identity"))
    (tmp_path / "hyper.json").write_text(json.dumps(hyper.to_json()))
    theta = np.random.default_rng(2).uniform(-1, 1, 6)
    ek.fno.save_theta(ek.FnoParams(hyper, theta), tmp_path / "theta.bin")
    (tmp_path / "input.json").write_text(json.dumps(
        {"dim": 1, "resolution": 4, "channels": 1,
         "values": [1.7e308] * 3 + [0.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["fno", "--hyper", str(tmp_path / "hyper.json"),
                                   "--params", str(tmp_path / "theta.bin"),
                                   "--input", str(tmp_path / "input.json")])
    assert res.exit_code == 2, res.exception
    assert "--input" in res.output and "not finite" in res.output
    assert "RuntimeWarning" not in res.output


def test_fno_refuses_a_constant_input_whose_true_output_overflows(runner,
                                                                 tmp_path):
    # every weight 2 maps the constant 1e308 to 2 * (2 + 2) * 2 * 1e308 + 4,
    # beyond the float range, on the constant branch as on the grid
    hyper = ek.FnoHyper(**dict(HYPER, activation="identity"))
    (tmp_path / "hyper.json").write_text(json.dumps(hyper.to_json()))
    ek.fno.save_theta(ek.FnoParams(hyper, np.full(6, 2.0)),
                      tmp_path / "theta.bin")
    grid = {"dim": 1, "resolution": 4, "channels": 1, "values": [1e308] * 4}
    assert ek.GridFunction.from_json(grid).level is not None
    (tmp_path / "input.json").write_text(json.dumps(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["fno", "--hyper", str(tmp_path / "hyper.json"),
                                   "--params", str(tmp_path / "theta.bin"),
                                   "--input", str(tmp_path / "input.json")])
    assert res.exit_code == 2, res.exception
    assert "--input" in res.output and "not finite" in res.output
    assert "RuntimeWarning" not in res.output


@pytest.mark.parametrize("command", ["fno", "quantize"])
def test_hyper_with_several_outputs_is_a_usage_error(runner, tmp_path,
                                                     command):
    # both commands evaluate the output-averaged forward, which needs d_out 1
    hyper = ek.FnoHyper(**dict(HYPER, d_out=2, d_c=2))
    (tmp_path / "hyper.json").write_text(json.dumps(hyper.to_json()))
    ek.fno.save_theta(ek.FnoParams.zeros(hyper), tmp_path / "theta.bin")
    u = ek.random_grid_function(1, 8, 1, stream(3, 7))
    (tmp_path / "input.json").write_text(json.dumps(u.to_json()))
    args = {"fno": ["--params", str(tmp_path / "theta.bin"),
                    "--input", str(tmp_path / "input.json")],
            "quantize": ["--delta", "0.01", "--m", "1.0", "--n-inputs", "2",
                         "--probes", "100"]}[command]
    res = runner.invoke(main, [command, "--hyper", str(tmp_path / "hyper.json")]
                        + args)
    assert res.exit_code == 2
    assert "--hyper" in res.output


def _command_args(tmp_path, space_file):
    """A run of each subcommand that takes neither --seed nor --config."""
    cases = _out_cases(tmp_path, space_file)
    cases.update({
        "hat": ["hat", "--space", space_file, "--eps", str(1 / 6)],
        "gv": ["gv", "--n", "8"],
        "bump": ["bump", "--d", "1", "--n", "4", "--grid", "16"],
    })
    return cases


@pytest.mark.parametrize("command,option", [
    ("codelength", "--seed"), ("codelength", "--config"),
    ("hat", "--seed"), ("hat", "--config"),
    ("gv", "--seed"), ("gv", "--config"),
    ("bump", "--seed"), ("bump", "--config"),
    ("fno", "--seed"), ("fno", "--config"),
    ("quantize", "--config"),
])
def test_group_option_a_command_does_not_read_is_a_usage_error(
        runner, tmp_path, space_file, command, option):
    # the group has no such option, and the command declares none: both
    # spellings are refused before anything runs
    args = _command_args(tmp_path, space_file)[command]
    value = "5" if option == "--seed" else space_file
    for spelling in ([option, value] + args, args + [option, value]):
        res = runner.invoke(main, spelling)
        assert res.exit_code == 2
        assert "No such option" in res.output and option in res.output


@pytest.mark.parametrize("command", ["embed-check", "sweep", "chain-uniform",
                                     "chain-expectation"])
def test_missing_config_file_is_a_usage_error(runner, command):
    res = runner.invoke(main, [command, "--config", "no-such-file.json",
                               "--seed", "5"])
    assert res.exit_code == 2
    assert "--config" in res.output and "does not exist" in res.output


def test_the_group_declares_only_version(runner, tmp_path):
    assert [param.opts for param in main.params] == [["--version"]]
    (tmp_path / "emb.json").write_text(json.dumps(EMBED_CFG))
    for args in (["--seed", "0", "sweep", "--config", str(tmp_path / "emb.json")],
                 ["--config", str(tmp_path / "emb.json"), "embed-check"],
                 ["--out", str(tmp_path / "gv.json"), "gv", "--n", "8"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "No such option" in res.output and args[0] in res.output
    assert not (tmp_path / "gv.json").exists()


@pytest.mark.parametrize("command,points,eps,option,message", [
    # above EXACT_LIMIT points the exact cover refuses the space
    ("codelength", 25, "0.5", "--space", "exact cover limited"),
    # 6 eps = 1.2 exceeds the diameter 1
    ("hat", 2, "0.2", "--eps", "separated"),
    # all 40 points are 6 eps = 0.6 apart: 2^40 members
    ("hat", 40, "0.1", "--eps", "2^16 cap"),
])
def test_spaces_a_command_cannot_handle_are_usage_errors(
        runner, tmp_path, command, points, eps, option, message):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(ek.FiniteMetricSpace.line(points).to_json()))
    res = runner.invoke(main, [command, "--space", str(path), "--eps", eps])
    assert res.exit_code == 2
    assert option in res.output and message in res.output


@pytest.mark.parametrize("command", ["embed-check", "sweep", "chain-uniform",
                                     "chain-expectation"])
def test_config_is_required(runner, command):
    res = runner.invoke(main, [command])
    assert res.exit_code == 2
    assert "Missing option '--config'" in res.output


@pytest.mark.parametrize("command,option", [
    ("codelength", "--space"), ("hat", "--space"), ("fno", "--hyper"),
    ("fno", "--params"), ("fno", "--input"), ("quantize", "--hyper"),
])
def test_file_options_refuse_a_directory(runner, tmp_path, space_file,
                                         command, option):
    # a directory used to reach open() and end in IsADirectoryError, exit 1
    args = _command_args(tmp_path, space_file)[command]
    args[args.index(option) + 1] = str(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.exception
    assert option in res.output and "is a directory" in res.output


def test_file_space_that_is_missing_is_a_usage_error(runner, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "experiment": "uniform-chain", "seed": 7,
        "space": {"kind": "file", "path": str(tmp_path / "missing.json")},
        "eps_ladder": [0.2]}))
    res = runner.invoke(main, ["chain-uniform", "--config", str(cfg_path)])
    assert res.exit_code == 2, res.exception
    assert "--config" in res.output and "missing.json" in res.output


def test_table_command_refuses_a_config_for_another_experiment(runner,
                                                               tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1, "experiment": "bits-accuracy", "seed": 5,
        "targets": {"kind": "singleton-constant", "value": 0.0},
        "hypers": [HYPER], "grids": [{"m": 1.0, "delta": 1.0}]}))
    res = runner.invoke(main, ["chain-uniform", "--config", str(cfg_path)])
    assert res.exit_code == 2
    assert ("config is for 'bits-accuracy', expected 'uniform-chain'"
            in res.output)


def test_dim_select_with_a_huge_dimension_is_refused_quickly(runner,
                                                             tmp_path):
    # d = 10^60 used to hold the dimension search in an endless loop
    cfg = json.loads((pathlib.Path(__file__).resolve().parent.parent / "configs"
                      / "expectation-d2-select.json").read_text())
    cfg["dim_select"] = {"eps": 1e-120, "c1": 2.0, "c2": 1.0, "alpha": 1.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    start = time.monotonic()
    res = runner.invoke(main, ["chain-expectation", "--config", str(cfg_path)])
    assert time.monotonic() - start < 1.0
    assert res.exit_code == 2, res.exception
    assert "exceeds the KL truncation" in res.output
