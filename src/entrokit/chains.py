"""Configuration-driven experiment chains with byte-stable CSV output.

Three experiments tie the modules together:

* uniform chain: exact entropy of a finite metric space K at 6 eps, the
  predicted lower bound 2^H(K; 6 eps) on the entropy of the unit Lipschitz
  ball over K, and the hat-family packing certificate at separation 3 eps.

* expectation chain: greedy sign code -> bump family on [0,1]^d ->
  embedding into L^p(mu) scaled by sqrt(lambda_d)/L so members live in the
  unit Lipschitz ball, with Monte-Carlo pairwise distances checked against
  cube quadrature and the predicted minimum separation.

* bits/accuracy sweep: quantized operator dictionaries against a target
  family, reported as a Pareto front, with the entropy floor column when
  the targets come from a metric-space instance.

Tables render to RFC-4180 CSV with LF line endings, '.' decimals and 17
significant digits, so identical (config, seed) pairs reproduce identical
bytes.  Configs are versioned JSON; unknown keys are errors.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import jsonschema

from . import __version__
from . import fno as fno_mod
from . import metricspace as ms
from . import packing as pk
from . import quantizer as qz
from . import randomfield as rf
from .errors import ConfigError, NoPacking
from .rng import STREAM_CHAIN_PAIRS, STREAM_SPACE_GEN, stream

SCHEMA_VERSION = 1
# the chains derive seed + t and seed + hi as uint64 Philox keys
SEED_MAX = 2**63 - 1


# ---------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    text = str(value)
    if any(ch in text for ch in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_atomic(path, payload: bytes) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class ResultTable:
    columns: List[str]
    rows: List[tuple]
    metadata: dict

    def to_csv_bytes(self) -> bytes:
        lines = [",".join(self.columns)]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match columns")
            # a lone empty cell is quoted, or the line would read as no row
            lines.append(",".join(_format_cell(v) for v in row) or '""')
        return ("\n".join(lines) + "\n").encode("utf-8")

    def write(self, path) -> None:
        write_atomic(path, self.to_csv_bytes())

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    @property
    def all_passed(self) -> bool:
        """The table has rows, every row that was not skipped passed, and
        the code reached its target size where the run reports one."""
        if not self.rows or not self.metadata.get("code_size_ok", True):
            return False
        if "passed" not in self.columns:
            return True
        i = self.columns.index("passed")
        j = self.columns.index("status") if "status" in self.columns else None
        relevant = [row for row in self.rows
                    if j is None or row[j] != "skipped"]
        return all(bool(row[i]) for row in relevant)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------

_SEED_SCHEMA = {"type": "integer", "minimum": 0, "maximum": SEED_MAX}


def _kind_rule(kind: str, keys: list, required: Sequence[str] = ()) -> dict:
    """When "kind" is `kind`, allow only `keys` beside it and require
    `required`: a key of another kind is an error, not ignored."""
    then = {"propertyNames": {"enum": ["kind"] + keys}}
    if required:
        then["required"] = list(required)
    return {"if": {"required": ["kind"],
                   "properties": {"kind": {"const": kind}}},
            "then": then}


_SPACE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["circle", "line", "random", "file"]},
        "n": {"type": "integer", "minimum": 1},
        "circumference": {"type": "number", "exclusiveMinimum": 0},
        "spacing": {"type": "number", "exclusiveMinimum": 0},
        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "path": {"type": "string"},
    },
    "allOf": [
        _kind_rule("circle", ["n", "circumference"], ["n"]),
        _kind_rule("line", ["n", "spacing"], ["n"]),
        _kind_rule("random", ["n", "dim"], ["n"]),
        _kind_rule("file", ["path"], ["path"]),
    ],
}

_KL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["lambda", "law"],
    "properties": {
        "lambda": {"anyOf": [{"const": "j^-2a"},
                             {"type": "array", "minItems": 1,
                              "items": {"type": "number",
                                        "exclusiveMinimum": 0}}]},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "J": {"type": "integer", "minimum": 1},
        "law": {"enum": ["gaussian", "uniform"]},
    },
    "if": {"required": ["lambda"],
           "properties": {"lambda": {"const": "j^-2a"}}},
    "then": {"required": ["alpha", "J"]},
    "else": {"propertyNames": {"enum": ["lambda", "law"]}},
}

_HYPER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dim", "d_in", "d_out", "d_c", "kappa", "depth"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "d_in": {"type": "integer", "minimum": 1},
        "d_out": {"type": "integer", "minimum": 1},
        "d_c": {"type": "integer", "minimum": 1},
        "kappa": {"type": "integer", "minimum": 1},
        "depth": {"type": "integer", "minimum": 1},
        "activation": {"enum": ["relu", "gelu", "identity"]},
        "bias_mode": {"enum": ["constant", "spectral"]},
    },
}

_GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["m", "delta"],
    "properties": {
        "m": {"type": "number", "exclusiveMinimum": 0},
        "delta": {"type": "number", "exclusiveMinimum": 0},
    },
}

UNIFORM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "experiment", "seed", "space", "eps_ladder"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"const": "uniform-chain"},
        "seed": _SEED_SCHEMA,
        "space": _SPACE_SCHEMA,
        "eps_ladder": {"type": "array", "minItems": 1,
                       "items": {"type": "number", "exclusiveMinimum": 0}},
    },
}

EXPECTATION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "experiment", "seed", "kl", "p", "cells",
                 "grid_res", "mc_samples"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"const": "expectation-chain"},
        "seed": _SEED_SCHEMA,
        "kl": _KL_SCHEMA,
        "p": {"type": "number", "minimum": 1},
        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        "dim_select": {
            "type": "object",
            "additionalProperties": False,
            "required": ["eps", "c1", "c2", "alpha"],
            "properties": {
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "c1": {"type": "number", "exclusiveMinimum": 0},
                "c2": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "cells": {"type": "integer", "minimum": 2},
        "grid_res": {"type": "integer", "minimum": 2},
        "mc_samples": {"type": "integer", "minimum": 100},
        "max_pairs": {"type": "integer", "minimum": 1},
    },
    # dim or dim_select, not both
    "if": {"required": ["dim_select"]},
    "then": {"not": {"required": ["dim"]}},
    "else": {"required": ["dim"]},
}

BITS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "experiment", "seed", "targets", "hypers",
                 "grids"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"const": "bits-accuracy"},
        "seed": _SEED_SCHEMA,
        "targets": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["hat-on-constants", "singleton-constant"]},
                "levels": {"type": "array", "minItems": 1,
                           "items": {"type": "number"}},
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "value": {"type": "number"},
            },
            "allOf": [_kind_rule("hat-on-constants", ["levels", "eps"]),
                      _kind_rule("singleton-constant", ["value"])],
        },
        "hypers": {"type": "array", "minItems": 1, "items": _HYPER_SCHEMA},
        "grids": {"type": "array", "minItems": 1, "items": _GRID_SCHEMA},
        "input_resolution": {"type": "integer", "minimum": 2},
        "max_random": {"type": "integer", "minimum": 1},
    },
}

EMBED_CHECK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kl"],
    "properties": {
        "kl": _KL_SCHEMA,
        "f": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["constant", "coordinate"]},
                "value": {"type": "number"},
                "grid_res": {"type": "integer", "minimum": 1},
            },
            "allOf": [_kind_rule("constant", ["value"]),
                      _kind_rule("coordinate", ["grid_res"])],
        },
        "p": {"type": "number", "minimum": 1},
        "samples": {"type": "integer", "minimum": 100},
        "seed": _SEED_SCHEMA,
    },
}


def _integer(checker, instance) -> bool:
    # not 8.0, which jsonschema counts as an integer: the runners pass
    # these values to range() and to array shapes
    return isinstance(instance, int) and not isinstance(instance, bool)


def _validator(schema: dict):
    cls = jsonschema.validators.validator_for(schema)
    checker = cls.TYPE_CHECKER.redefine("integer", _integer)
    return jsonschema.validators.extend(cls, type_checker=checker)(schema)


def _check(validator, cfg) -> dict:
    error = jsonschema.exceptions.best_match(validator.iter_errors(cfg))
    if error is not None:
        raise ConfigError(error.message)
    return cfg


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("experiment")
    if not isinstance(kind, str) or kind not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}")
    return _check(_EXPERIMENTS[kind][0], cfg)


def read_config(path):
    """The parsed JSON file, not yet validated."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"{path}: not valid JSON: {err}") from err


def load_config(path) -> dict:
    return validate_config(read_config(path))


def load_embed_check_config(path) -> dict:
    return _check(_EMBED_CHECK_VALIDATOR, read_config(path))


def _hyper(obj: dict) -> fno_mod.FnoHyper:
    """The architecture of a schema-valid hyper object."""
    try:
        return fno_mod.FnoHyper.from_json(obj)
    except ValueError as err:  # d_c below d_in or d_out
        raise ConfigError(f"hyper {obj}: {err}") from err


def load_hyper(path) -> fno_mod.FnoHyper:
    """The architecture in a JSON hyper file, validated."""
    return _hyper(_check(_HYPER_VALIDATOR, read_config(path)))


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------


def build_space(spec: dict, seed: int) -> ms.FiniteMetricSpace:
    kind = spec["kind"]
    if kind == "circle":
        return ms.FiniteMetricSpace.circle(spec["n"], spec.get("circumference"))
    if kind == "line":
        return ms.FiniteMetricSpace.line(spec["n"], spec.get("spacing", 1.0))
    if kind == "random":
        rng = stream(seed, STREAM_SPACE_GEN)
        coords = rng.uniform(0.0, 1.0, (spec["n"], spec.get("dim", 2)))
        return ms.FiniteMetricSpace.from_coords(coords)
    if kind == "file":
        return ms.FiniteMetricSpace.from_file(spec["path"])
    raise ConfigError(f"unknown space kind {kind!r}")


def constant_input_space(levels: Sequence[float], resolution: int = 8):
    """Constant grid inputs u_i = c_i; their sup distances are |c_i - c_j|.

    Returns (metric space over the levels, list of matching grid inputs).
    """
    levels = [float(c) for c in levels]
    coords = np.array(levels)[:, None]
    space = ms.FiniteMetricSpace.from_coords(coords, labels=levels,
                                             metric="chebyshev")
    inputs = [fno_mod.GridFunction(1, np.full((resolution, 1), c))
              for c in levels]
    return space, inputs


# ---------------------------------------------------------------------
# experiment chains
# ---------------------------------------------------------------------


def _run_uniform_chain(cfg: dict) -> ResultTable:
    seed = cfg["seed"]
    space = build_space(cfg["space"], seed)
    columns = ["eps", "n_cover_6eps", "h_k_6eps", "predicted", "certified",
               "min_pairwise_supdist", "status", "passed"]
    rows = []
    for eps in cfg["eps_ladder"]:
        n6 = ms.exact_covering_number(space, 6 * eps).count
        h = math.log2(n6)
        predicted = pk.entropy_lower_bound_uniform(h)
        try:
            fam = pk.build_hat_family(space, eps)
        except NoPacking:
            rows.append((eps, n6, h, predicted, 0.0, 0.0, "skipped", False))
            continue
        rep = fam.verify(seed=seed)
        passed = rep.ok and fam.n_centers >= n6
        rows.append((eps, n6, h, predicted, float(fam.n_centers),
                     rep.min_pairwise_supdist, "ok", passed))
    meta = {"seed": seed, "config_hash": config_hash(cfg),
            "experiment": "uniform-chain", "version": __version__}
    return ResultTable(columns, rows, meta)


def _expectation_dim(cfg: dict) -> int:
    if "dim" in cfg:
        return cfg["dim"]
    sel = cfg["dim_select"]
    return pk.select_embedding_dimension(sel["eps"], sel["c1"], sel["c2"],
                                         sel["alpha"])


def _run_expectation_chain(cfg: dict) -> ResultTable:
    seed = cfg["seed"]
    measure = rf.KLMeasure.from_config(cfg["kl"])
    p = float(cfg["p"])
    dim = _expectation_dim(cfg)
    if dim > measure.truncation:
        raise ConfigError("embedding dimension exceeds the KL truncation")
    if dim > 3:
        raise ConfigError(f"bump families need dimension 1, 2 or 3, not {dim}")
    cells = cfg["cells"]
    length = cells**dim
    if length > pk.MAX_CODE_LENGTH:
        raise ConfigError(
            f"cells^dim = {length} is above {pk.MAX_CODE_LENGTH}, the "
            "longest sign code")
    # check the grid before building the code, which can take seconds
    lam = pk.bump_lam(dim, cells, cfg["grid_res"], None)
    code = pk.gilbert_varshamov(length)
    family = pk.build_bump_family(dim, cells, cfg["grid_res"], code, lam)

    lam_d = float(measure.eigenvalues[dim - 1])
    scale = math.sqrt(lam_d) / measure.density_bound
    predicted_min = scale * family.l1_floor
    log2_size_bound = (code.length / 8.0) * math.log2(math.e)

    n_pairs = int(code.size * (code.size - 1) / 2)
    max_pairs = cfg.get("max_pairs", 16)
    pair_rng = stream(seed, STREAM_CHAIN_PAIRS)
    all_pairs = [(i, j) for i in range(code.size) for j in range(i + 1, code.size)]
    if n_pairs > max_pairs:
        chosen = pair_rng.choice(n_pairs, size=max_pairs, replace=False)
        pairs = [all_pairs[int(t)] for t in sorted(chosen)]
    else:
        pairs = all_pairs

    grids = {}

    def member_grid(idx: int) -> rf.GridFunction01:
        if idx not in grids:
            grids[idx] = rf.GridFunction01(dim, family.member_on_nodes(idx),
                                           lipschitz=1.0)
        return grids[idx]

    columns = ["code_size", "log2_size_bound", "dim", "cells",
               "predicted_min_sep", "pair_a", "pair_b", "mc_dist", "mc_stderr",
               "quad_dist", "zscore", "passed"]
    # pair t reads stream seed + t; its first dim columns are drawn ahead on
    # worker threads, which start while this thread integrates the pairs
    rows = []
    with rf.McDraws(measure, cfg["mc_samples"],
                    [seed + t for t in range(len(pairs))], dim) as draws:
        diffs = [rf.GridFunction01(dim, member_grid(a).values
                                   - member_grid(b).values)
                 for a, b in pairs]
        quad_moments = [scale**p * diff.quadrature_abs_pow(p)
                        for diff in diffs]
        for t, ((a, b), diff, quad_moment) in enumerate(
                zip(pairs, diffs, quad_moments)):
            emb = rf.embed(diff, measure).scaled(scale)
            mc = rf.lp_norm_mc(emb, measure, p, cfg["mc_samples"], seed + t,
                               draws=draws)
            z = rf.moment_zscore(mc.moment, quad_moment, mc.moment_stderr)
            passed = (mc.estimate >= predicted_min - 3 * mc.stderr) and abs(z) <= 3
            rows.append((code.size, log2_size_bound, dim, cells, predicted_min,
                         a, b, mc.estimate, mc.stderr,
                         quad_moment ** (1.0 / p), z, passed))
    meta = {"seed": seed, "config_hash": config_hash(cfg),
            "experiment": "expectation-chain", "version": __version__,
            "code_size_ok": code.size >= code.target_size}
    return ResultTable(columns, rows, meta)


def _run_bits_accuracy(cfg: dict) -> ResultTable:
    seed = cfg["seed"]
    tspec = cfg["targets"]
    resolution = cfg.get("input_resolution", 8)
    entropy_floor: Optional[float] = None

    if tspec["kind"] == "hat-on-constants":
        levels = tspec.get("levels", [0.0, 1.0])
        eps = tspec.get("eps", 1.0 / 6.0)
        space, inputs = constant_input_space(levels, resolution)
        fam = pk.build_hat_family(space, eps)
        ids = tuple(range(len(inputs)))
        targets = [ms.SampledFunctional(ids, fam.member(
            [(s >> j) & 1 for j in range(fam.n_centers)]))
            for s in range(fam.size)]
        n6 = ms.exact_covering_number(space, 6 * eps).count
        entropy_floor = pk.entropy_lower_bound_uniform(math.log2(n6))
    else:  # singleton-constant
        value = tspec.get("value", 0.0)
        levels = [0.0, 1.0]
        _, inputs = constant_input_space(levels, resolution)
        ids = tuple(range(len(inputs)))
        targets = [ms.SampledFunctional(ids, np.full(len(inputs), value))]

    hypers = [_hyper(h) for h in cfg["hypers"]]
    grids = [qz.QuantGrid(g["m"], g["delta"]) for g in cfg["grids"]]
    front = qz.accuracy_bits_sweep(targets, hypers, grids, inputs, seed,
                                   max_random=cfg.get("max_random", 1 << 12))
    if entropy_floor is None:
        columns = ["bits", "minimax_err", "hyper_id", "grid_id", "seed"]
        rows = [(r.bits, r.minimax_err, r.hyper_id, r.grid_id, r.seed)
                for r in front]
    else:
        columns = ["bits", "minimax_err", "hyper_id", "grid_id", "seed",
                   "entropy_floor"]
        rows = [(r.bits, r.minimax_err, r.hyper_id, r.grid_id, r.seed,
                 entropy_floor) for r in front]
    meta = {"seed": seed, "config_hash": config_hash(cfg),
            "experiment": "bits-accuracy", "version": __version__,
            "random_search_rows": sum(1 for r in front if not r.exhaustive)}
    return ResultTable(columns, rows, meta)


# validators are built once, at import; experiment -> (validator, runner)
_EMBED_CHECK_VALIDATOR = _validator(EMBED_CHECK_SCHEMA)
_HYPER_VALIDATOR = _validator(_HYPER_SCHEMA)
_EXPERIMENTS = {
    "uniform-chain": (_validator(UNIFORM_SCHEMA), _run_uniform_chain),
    "expectation-chain": (_validator(EXPECTATION_SCHEMA),
                          _run_expectation_chain),
    "bits-accuracy": (_validator(BITS_SCHEMA), _run_bits_accuracy),
}


def run_experiment(cfg: dict) -> ResultTable:
    validate_config(cfg)
    return _EXPERIMENTS[cfg["experiment"]][1](cfg)
