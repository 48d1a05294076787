"""Experiment chains: schema validation, pass flags, byte determinism."""

import csv
import io
import math
import struct
import threading
from dataclasses import replace

import jsonschema
import pytest
from hypothesis import given, strategies as st

import entrokit as ek
from entrokit import chains
from entrokit.chains import ResultTable, config_hash


UNIFORM_CFG = {
    "schema_version": 1,
    "experiment": "uniform-chain",
    "seed": 7,
    "space": {"kind": "circle", "n": 8},
    "eps_ladder": [1 / 6],
}

EXPECT_CFG = {
    "schema_version": 1,
    "experiment": "expectation-chain",
    "seed": 3,
    "kl": {"lambda": "j^-2a", "alpha": 1.0, "J": 64, "law": "gaussian"},
    "p": 1,
    "dim": 1,
    "cells": 2,
    "grid_res": 16,
    "mc_samples": 20000,
}

BITS_CFG = {
    "schema_version": 1,
    "experiment": "bits-accuracy",
    "seed": 5,
    "targets": {"kind": "hat-on-constants", "levels": [0.0, 1.0], "eps": 1 / 6},
    "hypers": [{"dim": 1, "d_in": 1, "d_out": 1, "d_c": 1, "kappa": 1,
                "depth": 1, "activation": "identity"}],
    "grids": [{"m": 1.0, "delta": 1.0}, {"m": 1.0, "delta": 0.5}],
    "input_resolution": 8,
}


# -- config validation ----------------------------------------------------


def test_unknown_keys_are_errors():
    bad = dict(UNIFORM_CFG, plot=True)
    with pytest.raises(ek.ConfigError):
        ek.validate_config(bad)


def test_wrong_schema_version_rejected():
    bad = dict(UNIFORM_CFG, schema_version=2)
    with pytest.raises(ek.ConfigError):
        ek.validate_config(bad)


def test_unknown_experiment_rejected():
    with pytest.raises(ek.ConfigError):
        ek.validate_config({"schema_version": 1, "experiment": "nope", "seed": 0})


def test_unhashable_experiment_rejected():
    with pytest.raises(ek.ConfigError, match="unknown experiment"):
        ek.validate_config({"schema_version": 1,
                            "experiment": ["uniform-chain"]})


SCHEMAS = {"uniform-chain": chains.UNIFORM_SCHEMA,
           "expectation-chain": chains.EXPECTATION_SCHEMA,
           "bits-accuracy": chains.BITS_SCHEMA,
           "embed-check": chains.EMBED_CHECK_SCHEMA}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_constants_pass_their_metaschema(name):
    # the validators are built once at import without this check
    schema = SCHEMAS[name]
    jsonschema.validators.validator_for(schema).check_schema(schema)


BAD_CONFIGS = {
    "rogue-key": dict(UNIFORM_CFG, plot=True),
    "missing-seed": {k: v for k, v in UNIFORM_CFG.items() if k != "seed"},
    "ladder-type": dict(UNIFORM_CFG, eps_ladder=[1 / 6, "x"]),
    # two errors at different depths, and one inside an anyOf branch: the
    # message is the one best_match picks, not the first error found
    "kl-law-and-cells": dict(EXPECT_CFG, cells=1,
                             kl=dict(EXPECT_CFG["kl"], law="cauchy")),
    "lambda-items": dict(EXPECT_CFG,
                         kl=dict(EXPECT_CFG["kl"], **{"lambda": [1, "a"]})),
    "hyper-depth": dict(BITS_CFG, hypers=[dict(BITS_CFG["hypers"][0], depth=0)]),
    "empty-grids": dict(BITS_CFG, grids=[]),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_config_error_message_matches_jsonschema_validate(name):
    cfg = BAD_CONFIGS[name]
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(cfg, SCHEMAS[cfg["experiment"]])
    with pytest.raises(ek.ConfigError) as err:
        ek.validate_config(cfg)
    assert str(err.value) == oracle.value.message


def test_run_experiment_validates_once(monkeypatch):
    calls = []
    validate = chains.validate_config

    def counting(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(chains, "validate_config", counting)
    ek.run_experiment(UNIFORM_CFG)
    assert len(calls) == 1


def test_run_experiment_is_the_only_runner_entry_point():
    for name in ("run_uniform_chain", "run_expectation_chain",
                 "run_bits_accuracy"):
        assert not hasattr(ek, name)
        assert not hasattr(chains, name)


def test_dim_and_dim_select_exclusive():
    both = dict(EXPECT_CFG, dim_select={"eps": 0.25, "c1": 2.0, "c2": 1.0,
                                        "alpha": 0.5})
    neither = {k: v for k, v in EXPECT_CFG.items() if k != "dim"}
    for bad in (both, neither):
        with pytest.raises(ek.ConfigError):
            ek.validate_config(bad)


# every key a runner reads with [] is required by its schema
SCHEMA_GAPS = {
    "circle-without-n": dict(UNIFORM_CFG, space={"kind": "circle"}),
    "line-without-n": dict(UNIFORM_CFG, space={"kind": "line", "spacing": 0.5}),
    "random-without-n": dict(UNIFORM_CFG, space={"kind": "random", "dim": 2}),
    "file-without-path": dict(UNIFORM_CFG, space={"kind": "file"}),
    "unknown-lambda-rule": dict(EXPECT_CFG, kl=dict(EXPECT_CFG["kl"],
                                                    **{"lambda": "foo"})),
    "rule-without-alpha": dict(EXPECT_CFG, kl={"lambda": "j^-2a", "J": 64,
                                               "law": "gaussian"}),
    "rule-without-J": dict(EXPECT_CFG, kl={"lambda": "j^-2a", "alpha": 1.0,
                                           "law": "gaussian"}),
    "no-eigenvalues": dict(EXPECT_CFG, kl={"lambda": [], "law": "gaussian"}),
    "zero-eigenvalue": dict(EXPECT_CFG, kl={"lambda": [1.0, 0.0],
                                            "law": "gaussian"}),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_GAPS))
def test_keys_the_runners_read_are_required(name):
    with pytest.raises(ek.ConfigError):
        ek.run_experiment(SCHEMA_GAPS[name])


# inputs the schemas once accepted and the runners then crashed on with a
# plain TypeError or ValueError
UNTYPED_CRASHES = {
    "integral-float-n": dict(UNIFORM_CFG, space={"kind": "circle", "n": 8.0}),
    "integral-float-cells": dict(EXPECT_CFG, cells=2.0),
    "increasing-lambda": dict(EXPECT_CFG, kl={"lambda": [0.25, 1.0],
                                              "law": "gaussian"}),
    "d_c-below-d_in": dict(BITS_CFG, hypers=[dict(BITS_CFG["hypers"][0],
                                                  d_in=2)]),
    # a sign code of length cells^dim above 64 does not fit its words
    "cells-to-the-dim-above-64": dict(EXPECT_CFG, dim=2, cells=9,
                                      grid_res=54),
    # dim_select picks d = 4 here; bump families stop at d = 3
    "selected-dim-above-3": dict(
        {k: v for k, v in EXPECT_CFG.items() if k != "dim"},
        dim_select={"eps": 0.1, "c1": 2.0, "c2": 1.0, "alpha": 0.5}),
}


@pytest.mark.parametrize("name", sorted(UNTYPED_CRASHES))
def test_accepted_inputs_that_crashed_are_config_errors(name):
    with pytest.raises(ek.ConfigError):
        ek.run_experiment(UNTYPED_CRASHES[name])


# (config, the key that belongs to another kind)
OTHER_KIND_KEYS = {
    "circle-spacing": (dict(UNIFORM_CFG, space={"kind": "circle", "n": 8,
                                                "spacing": 2.0}), "spacing"),
    "circle-dim": (dict(UNIFORM_CFG, space={"kind": "circle", "n": 8,
                                            "dim": 2}), "dim"),
    "line-circumference": (dict(UNIFORM_CFG, space={
        "kind": "line", "n": 8, "circumference": 2.0}), "circumference"),
    "random-path": (dict(UNIFORM_CFG, space={"kind": "random", "n": 5,
                                             "path": "x.json"}), "path"),
    "file-n": (dict(UNIFORM_CFG, space={"kind": "file", "path": "x.json",
                                        "n": 4}), "n"),
    "list-alpha": (dict(EXPECT_CFG, kl={"lambda": [1.0, 0.5], "alpha": 1.0,
                                        "law": "gaussian"}), "alpha"),
    "list-J": (dict(EXPECT_CFG, kl={"lambda": [1.0, 0.5], "J": 2,
                                    "law": "gaussian"}), "J"),
    "singleton-levels": (dict(BITS_CFG, targets={
        "kind": "singleton-constant", "levels": [0.0, 1.0]}), "levels"),
    "singleton-eps": (dict(BITS_CFG, targets={
        "kind": "singleton-constant", "eps": 0.1}), "eps"),
    "hat-value": (dict(BITS_CFG, targets={"kind": "hat-on-constants",
                                          "value": 0.5}), "value"),
}


@pytest.mark.parametrize("name", sorted(OTHER_KIND_KEYS))
def test_keys_of_another_kind_are_errors(name):
    cfg, key = OTHER_KIND_KEYS[name]
    with pytest.raises(ek.ConfigError, match=f"'{key}'"):
        ek.validate_config(cfg)


def test_kl_measure_keeps_its_value_error_for_direct_callers():
    with pytest.raises(ValueError):
        ek.KLMeasure([0.25, 1.0])
    with pytest.raises(ek.ConfigError):
        ek.KLMeasure.from_config({"lambda": [0.25, 1.0], "law": "gaussian"})


def test_explicit_eigenvalues_need_no_rule_keys():
    cfg = dict(EXPECT_CFG, kl={"lambda": [1.0, 0.25, 0.0625],
                               "law": "gaussian"}, mc_samples=500)
    assert ek.run_experiment(cfg).rows


@pytest.mark.parametrize("cfg", [UNIFORM_CFG, EXPECT_CFG, BITS_CFG],
                         ids=lambda c: c["experiment"])
@pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1])
def test_seeds_outside_the_philox_range_are_config_errors(cfg, seed):
    with pytest.raises(ek.ConfigError):
        ek.run_experiment(dict(cfg, seed=seed))


def test_largest_seed_runs():
    # chains derive seed + t; below 2^63 that stays a uint64 Philox key
    cfg = dict(EXPECT_CFG, dim=2, cells=4, grid_res=24, mc_samples=100,
               max_pairs=2, seed=chains.SEED_MAX)
    assert chains.SEED_MAX == 2**63 - 1
    assert len(ek.run_experiment(cfg).rows) == 2
    cfg = dict(UNIFORM_CFG, space={"kind": "random", "n": 5},
               seed=chains.SEED_MAX)
    assert ek.run_experiment(cfg).rows


def test_malformed_json_is_a_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1,')
    with pytest.raises(ek.ConfigError):
        ek.load_config(path)


# -- table formatting -------------------------------------------------------


def test_csv_formatting_rules():
    t = ResultTable(["a", "b", "c"], [(1, 0.5, "x,y"), (2, 1.0, 'q"r')], {})
    text = t.to_csv_bytes().decode()
    assert text.splitlines()[0] == "a,b,c"
    assert '"x,y"' in text and '"q""r"' in text
    assert "\r" not in text
    assert text.endswith("\n")


def test_csv_17_digit_floats():
    t = ResultTable(["v"], [(1 / 3,)], {})
    assert t.to_csv_bytes().decode().splitlines()[1] == "0.33333333333333331"


def _read_csv(table):
    text = table.to_csv_bytes().decode("utf-8")
    return list(csv.reader(io.StringIO(text, newline="")))


def test_csv_quotes_carriage_returns():
    t = ResultTable(["a", "b"], [("x\ry", 1.5), ("\r\n", "z")], {})
    assert _read_csv(t) == [["a", "b"], ["x\ry", "1.5"], ["\r\n", "z"]]


def test_csv_one_empty_cell_is_a_row():
    assert _read_csv(ResultTable(["a"], [("",), ("b",)], {})) == [
        ["a"], [""], ["b"]]


_CELLS = st.one_of(
    st.booleans(), st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     math.inf, -math.inf]),
    st.text())


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[_CELLS] * width), max_size=5))
    return ResultTable([f"c{i}" for i in range(width)], rows, {})


@given(_tables())
def test_csv_round_trips_through_csv_reader(table):
    back = _read_csv(table)
    assert back[0] == table.columns
    assert len(back) == len(table.rows) + 1
    for row, cells in zip(table.rows, back[1:]):
        assert len(cells) == len(row)
        for value, cell in zip(row, cells):
            if isinstance(value, bool):
                assert cell == ("1" if value else "0")
            elif isinstance(value, int):
                assert int(cell) == value
            elif isinstance(value, float):
                # %.17g names every double exactly, signed zeros included
                assert cell == "%.17g" % value
                assert struct.pack("<d", float(cell)) == struct.pack("<d", value)
            else:
                assert cell == value


@pytest.mark.parametrize("columns", [["passed"], ["status", "passed"], ["v"]])
def test_a_table_with_no_rows_does_not_pass(columns):
    assert not ResultTable(columns, [], {}).all_passed
    # skipped rows keep their meaning: a table of skipped rows passes
    if "status" in columns:
        assert ResultTable(columns, [("skipped", False)], {}).all_passed


def test_atomic_write(tmp_path):
    t = ResultTable(["v"], [(1,)], {})
    path = tmp_path / "out.csv"
    t.write(path)
    assert path.read_bytes() == t.to_csv_bytes()
    assert list(tmp_path.iterdir()) == [path]  # no temp residue


def test_config_hash_stable_under_key_order():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)


# -- uniform chain ----------------------------------------------------------


def test_uniform_chain_circle_reference():
    t = ek.run_experiment(UNIFORM_CFG)
    assert t.all_passed
    row = dict(zip(t.columns, t.rows[0]))
    assert row["n_cover_6eps"] == 3
    assert row["certified"] == 8.0
    assert row["predicted"] == pytest.approx(3.0)
    assert row["certified"] >= row["h_k_6eps"]


def test_uniform_chain_degenerate_row_skipped():
    cfg = dict(UNIFORM_CFG, space={"kind": "line", "n": 3, "spacing": 0.5},
               eps_ladder=[0.2, 0.05])
    t = ek.run_experiment(cfg)
    status = t.column("status")
    assert status[0] == "skipped" and status[1] == "ok"
    assert t.all_passed  # skipped rows do not fail the run


def test_uniform_chain_byte_identical():
    a = ek.run_experiment(UNIFORM_CFG).to_csv_bytes()
    b = ek.run_experiment(UNIFORM_CFG).to_csv_bytes()
    assert a == b


# -- expectation chain ----------------------------------------------------------


def test_expectation_chain_reference():
    t = ek.run_experiment(EXPECT_CFG)
    assert t.all_passed
    assert t.metadata["code_size_ok"]
    row = dict(zip(t.columns, t.rows[0]))
    assert row["predicted_min_sep"] == pytest.approx(
        math.sqrt(1.0) / 1.0 / (8 * math.e * 1 * 2))
    assert row["mc_dist"] >= row["predicted_min_sep"] - 3 * row["mc_stderr"]
    assert abs(row["zscore"]) <= 3
    assert row["log2_size_bound"] == pytest.approx((2 / 8) * math.log2(math.e))


def test_expectation_chain_dim_select():
    cfg = dict(EXPECT_CFG, p=2, grid_res=24,
               dim_select={"eps": 0.25, "c1": 2.0, "c2": 1.0, "alpha": 0.5})
    del cfg["dim"]
    t = ek.run_experiment(cfg)
    assert t.column("dim")[0] == 2
    assert t.all_passed


def test_expectation_chain_byte_identical():
    a = ek.run_experiment(EXPECT_CFG).to_csv_bytes()
    b = ek.run_experiment(EXPECT_CFG).to_csv_bytes()
    assert a == b


def test_expectation_chain_short_code_fails_the_run(monkeypatch):
    # a code below its target size fails the run; the CSV keeps its bytes
    full = ek.run_experiment(EXPECT_CFG)
    build = chains.pk.gilbert_varshamov
    monkeypatch.setattr(chains.pk, "gilbert_varshamov", lambda n: replace(
        build(n), target_size=build(n).size + 1))
    t = ek.run_experiment(EXPECT_CFG)
    assert not t.metadata["code_size_ok"]
    assert not t.all_passed
    assert t.to_csv_bytes() == full.to_csv_bytes()


def test_expectation_chain_checks_its_grid_before_it_builds_the_code(
        monkeypatch):
    # 7^2 cells need a 49-bit code, most of a second and 269 MB; a grid
    # that is no multiple of the cells is refused first
    def no_code(n):
        raise AssertionError("the sign code was built")

    monkeypatch.setattr(chains.pk, "gilbert_varshamov", no_code)
    with pytest.raises(ek.GridMisaligned):
        ek.run_experiment(dict(EXPECT_CFG, dim=2, cells=7, grid_res=50))


class _QuadratureFailed(Exception):
    pass


def test_expectation_chain_quadrature_error_leaves_no_worker(monkeypatch):
    # the quadratures run while worker threads draw; a failing one raises
    # its own error, and leaving the draw block has joined every worker
    def failing(self, p, refine=8):
        raise _QuadratureFailed

    monkeypatch.setattr(ek.GridFunction01, "quadrature_abs_pow", failing)
    before = set(threading.enumerate())
    with pytest.raises(_QuadratureFailed):
        ek.run_experiment(dict(EXPECT_CFG, dim=2, cells=4, grid_res=24))
    assert [t for t in threading.enumerate() if t not in before] == []


# -- bits accuracy ---------------------------------------------------------------


def test_bits_accuracy_hat_targets():
    t = ek.run_experiment(BITS_CFG)
    assert t.columns == ["bits", "minimax_err", "hyper_id", "grid_id", "seed",
                         "entropy_floor"]
    errs = t.column("minimax_err")
    assert errs == sorted(errs, reverse=True)
    # volume floor: errors below 3 eps need at least log2(4) - 1 = 1 bit
    for bits, err in zip(t.column("bits"), errs):
        if err < 0.5:
            assert bits >= 1


def test_bits_accuracy_singleton_target():
    cfg = dict(BITS_CFG, targets={"kind": "singleton-constant", "value": 0.0},
               grids=[{"m": 1.0, "delta": 1.0}])
    t = ek.run_experiment(cfg)
    assert t.columns == ["bits", "minimax_err", "hyper_id", "grid_id", "seed"]
    assert t.rows[0][1] == pytest.approx(0.0, abs=1e-12)


def test_bits_accuracy_deterministic():
    a = ek.run_experiment(BITS_CFG).to_csv_bytes()
    b = ek.run_experiment(BITS_CFG).to_csv_bytes()
    assert a == b


def test_run_experiment_dispatch():
    t = ek.run_experiment(UNIFORM_CFG)
    assert t.metadata["experiment"] == "uniform-chain"
