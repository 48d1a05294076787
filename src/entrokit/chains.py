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
import numbers
import os
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

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


# ---------------------------------------------------------------------
# config validation: the JSON Schema keywords the schemas above use, read
# as JSON Schema 2020-12 reads them, with jsonschema's wording
# ---------------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    # not 8.0, which JSON Schema counts as an integer: the runners pass
    # these values to range() and to array shapes
    "integer": lambda value: (isinstance(value, int)
                              and not isinstance(value, bool)),
    "number": _is_number,
}


def _json_equal(value, scalar) -> bool:
    """Equality as JSON sees it, against a string or number of a schema:
    1 == 1.0, but true is not 1."""
    return (isinstance(value, bool) == isinstance(scalar, bool)
            and value == scalar)


def _type(name, value, path, schema):
    if not _TYPES[name](value):
        yield path, f"{value!r} is not of type {name!r}"


def _const(const, value, path, schema):
    if not _json_equal(value, const):
        yield path, f"{const!r} was expected"


def _enum(options, value, path, schema):
    if not any(_json_equal(value, option) for option in options):
        yield path, f"{value!r} is not one of {options!r}"


def _minimum(bound, value, path, schema):
    if _is_number(value) and value < bound:
        yield path, f"{value!r} is less than the minimum of {bound!r}"


def _maximum(bound, value, path, schema):
    if _is_number(value) and value > bound:
        yield path, f"{value!r} is greater than the maximum of {bound!r}"


def _exclusive_minimum(bound, value, path, schema):
    if _is_number(value) and value <= bound:
        yield path, (f"{value!r} is less than or equal to the minimum of "
                     f"{bound!r}")


def _min_items(least, value, path, schema):
    if isinstance(value, list) and len(value) < least:
        yield path, f"{value!r} " + ("should be non-empty" if least == 1
                                     else "is too short")


def _items(item_schema, value, path, schema):
    if isinstance(value, list):
        for index, item in enumerate(value):
            yield from _errors(item_schema, item, path + (index,))


def _properties(properties, value, path, schema):
    if isinstance(value, dict):
        for key, subschema in properties.items():
            if key in value:
                yield from _errors(subschema, value[key], path + (key,))


def _no_additional_properties(allowed, value, path, schema):
    # only `false` is implemented: a key outside "properties" is an error
    if isinstance(value, dict):
        known = schema.get("properties", {})
        extras = sorted((key for key in value if key not in known), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, ("Additional properties are not allowed (%s %s "
                         "unexpected)" % (", ".join(map(repr, extras)), verb))


def _required(keys, value, path, schema):
    if isinstance(value, dict):
        for key in keys:
            if key not in value:
                yield path, f"{key!r} is a required property"


def _property_names(name_schema, value, path, schema):
    if isinstance(value, dict):
        for key in value:
            yield from _errors(name_schema, key, path)


def _all_of(branches, value, path, schema):
    for branch in branches:
        yield from _errors(branch, value, path)


def _any_of(branches, value, path, schema):
    # the deepest error of the failed branches, the first among equals;
    # when all of them sit at the value itself, no branch came closer to
    # matching than another, and the message says the value matches none
    failed = []
    for branch in branches:
        errors = list(_errors(branch, value, path))
        if not errors:
            return
        failed += errors
    deepest = max(failed, key=lambda error: len(error[0]))
    if len(deepest[0]) > len(path):
        yield deepest
    else:
        yield path, f"{value!r} is not valid under any of the given schemas"


def _not(negated, value, path, schema):
    if _valid(negated, value):
        yield path, f"{value!r} should not be valid under {negated!r}"


def _if(condition, value, path, schema):
    branch = schema.get("then" if _valid(condition, value) else "else")
    if branch is not None:
        yield from _errors(branch, value, path)


def _read_by_if(branch, value, path, schema):
    return ()


# keyword -> fn(argument, value, path, schema) yielding (path, message)
_KEYWORDS = {
    "type": _type, "const": _const, "enum": _enum,
    "minimum": _minimum, "maximum": _maximum,
    "exclusiveMinimum": _exclusive_minimum,
    "minItems": _min_items, "items": _items,
    "properties": _properties,
    "additionalProperties": _no_additional_properties,
    "required": _required, "propertyNames": _property_names,
    "allOf": _all_of, "anyOf": _any_of, "not": _not,
    "if": _if, "then": _read_by_if, "else": _read_by_if,
}


def _errors(schema: dict, value, path: tuple):
    """(path, message) for each way value breaks schema, in schema order;
    path holds the keys and list indices that lead to the offending value.
    A keyword outside _KEYWORDS raises KeyError rather than pass."""
    for keyword, argument in schema.items():
        yield from _KEYWORDS[keyword](argument, value, path, schema)


def _valid(schema: dict, value) -> bool:
    return next(_errors(schema, value, ()), None) is None


def _path_text(path: tuple) -> str:
    """hypers[0].depth for ("hypers", 0, "depth")."""
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return text[1:] if text.startswith(".") else text


def _check(schema: dict, cfg):
    """cfg, if it meets schema; else ConfigError for its shallowest error
    (the first in schema order among equals), prefixed by the path."""
    error = min(_errors(schema, cfg, ()), key=lambda e: len(e[0]),
                default=None)
    if error is not None:
        path, message = error
        raise ConfigError(f"{_path_text(path)}: {message}" if path
                          else message)
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
    return _check(EMBED_CHECK_SCHEMA, read_config(path))


def _hyper(obj: dict) -> fno_mod.FnoHyper:
    """The architecture of a schema-valid hyper object."""
    try:
        return fno_mod.FnoHyper.from_json(obj)
    except ValueError as err:  # d_c below d_in or d_out
        raise ConfigError(f"hyper {obj}: {err}") from err


def load_hyper(path) -> fno_mod.FnoHyper:
    """The architecture in a JSON hyper file, validated."""
    return _hyper(_check(_HYPER_SCHEMA, read_config(path)))


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
        rep = fam.verify()
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

    # every pair (i, j), i < j, in row-major order
    first, second = np.triu_indices(code.size, 1)
    max_pairs = cfg.get("max_pairs", 16)
    pair_rng = stream(seed, STREAM_CHAIN_PAIRS)
    if len(first) > max_pairs:
        keep = np.sort(pair_rng.choice(len(first), size=max_pairs, replace=False))
        first, second = first[keep], second[keep]
    pairs = list(zip(first.tolist(), second.tolist()))

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
    try:
        grids = [qz.QuantGrid(g["m"], g["delta"]) for g in cfg["grids"]]
    except ValueError as err:  # delta above 2 M
        raise ConfigError(f"grid: {err}") from err
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


# experiment -> (schema, runner)
_EXPERIMENTS = {
    "uniform-chain": (UNIFORM_SCHEMA, _run_uniform_chain),
    "expectation-chain": (EXPECTATION_SCHEMA, _run_expectation_chain),
    "bits-accuracy": (BITS_SCHEMA, _run_bits_accuracy),
}


def run_experiment(cfg: dict) -> ResultTable:
    validate_config(cfg)
    return _EXPERIMENTS[cfg["experiment"]][1](cfg)
