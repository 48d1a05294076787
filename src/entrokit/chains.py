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

import copy
import hashlib
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import __version__
from . import fno as fno_mod
from . import metricspace as ms
from . import packing as pk
from . import quantizer as qz
from . import randomfield as rf
from .errors import ConfigError, NoPacking, SizeLimitExceeded, read_json
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


def _kind_rule(kind: str, keys: list, required: Sequence[str] = (),
               **defaults) -> dict:
    """When "kind" is `kind`, allow only `keys` beside it, require
    `required` and fill `defaults`: a key of another kind is an error."""
    then = {"propertyNames": {"enum": ["kind"] + keys}}
    if required:
        then["required"] = list(required)
    if defaults:
        then["properties"] = {k: {"default": v} for k, v in defaults.items()}
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
        _kind_rule("line", ["n", "spacing"], ["n"], spacing=1.0),
        _kind_rule("random", ["n", "dim"], ["n"], dim=2),
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
        "activation": {"enum": ["relu", "gelu", "identity"],
                       "default": "relu"},
        "bias_mode": {"enum": ["constant", "spectral"],
                      "default": "constant"},
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
        "max_pairs": {"type": "integer", "minimum": 1, "default": 16},
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
            "allOf": [_kind_rule("hat-on-constants", ["levels", "eps"],
                                 levels=[0.0, 1.0], eps=1.0 / 6.0),
                      _kind_rule("singleton-constant", ["value"], value=0.0)],
        },
        "hypers": {"type": "array", "minItems": 1, "items": _HYPER_SCHEMA},
        "grids": {"type": "array", "minItems": 1, "items": _GRID_SCHEMA},
        "input_resolution": {"type": "integer", "minimum": 2, "default": 8},
        "max_random": {"type": "integer", "minimum": 1, "default": 4096},
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
            "allOf": [_kind_rule("constant", ["value"], value=1.0),
                      _kind_rule("coordinate", ["grid_res"], grid_res=16)],
            "default": {"kind": "coordinate"},
        },
        "p": {"type": "number", "minimum": 1, "default": 2},
        "samples": {"type": "integer", "minimum": 100, "default": 100000},
        "seed": dict(_SEED_SCHEMA, default=0),
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


def _no_errors(argument, value, path, schema):
    # "then" and "else" are read by "if"; "default" is an annotation
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
    "if": _if, "then": _no_errors, "else": _no_errors, "default": _no_errors,
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


def _with_defaults(schema: dict, cfg):
    """A deep copy of cfg, valid under schema, with each absent key whose
    schema has a "default" set to it, through properties, items, allOf and
    the if branch taken, so a kind's default reaches only that kind."""
    cfg = copy.deepcopy(cfg)
    todo = [(schema, cfg)]
    while todo:
        schema, value = todo.pop()
        if isinstance(value, dict):
            for key, subschema in schema.get("properties", {}).items():
                if key not in value and "default" in subschema:
                    value[key] = copy.deepcopy(subschema["default"])
                if key in value:
                    todo.append((subschema, value[key]))
        if isinstance(value, list) and "items" in schema:
            todo += [(schema["items"], item) for item in value]
        todo += [(branch, value) for branch in schema.get("allOf", ())]
        if "if" in schema:
            branch = "then" if _valid(schema["if"], value) else "else"
            todo.append((schema.get(branch, {}), value))
    return cfg


def load_config(path) -> dict:
    return validate_config(read_json(path))


def _hyper(obj: dict) -> fno_mod.FnoHyper:
    """The architecture of a schema-valid hyper object."""
    try:
        return fno_mod.FnoHyper.from_json(obj)
    except ValueError as err:  # d_c below d_in or d_out
        raise ConfigError(f"hyper {obj}: {err}") from err


def load_hyper(path) -> fno_mod.FnoHyper:
    """The architecture in a JSON hyper file, validated."""
    return _hyper(_with_defaults(_HYPER_SCHEMA,
                                 _check(_HYPER_SCHEMA, read_json(path))))


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------


def build_space(spec: dict, seed: int) -> ms.FiniteMetricSpace:
    kind = spec["kind"]
    try:
        if kind == "circle":
            return ms.FiniteMetricSpace.circle(spec["n"], spec.get("circumference"))
        if kind == "line":
            return ms.FiniteMetricSpace.line(spec["n"], spec["spacing"])
    except ValueError as err:  # e.g. distances that overflow a float
        raise ConfigError(f"space: {err}") from err
    if kind == "random":
        rng = stream(seed, STREAM_SPACE_GEN)
        coords = rng.uniform(0.0, 1.0, (spec["n"], spec["dim"]))
        return ms.FiniteMetricSpace.from_coords(coords)
    if kind == "file":
        return ms.FiniteMetricSpace.from_file(spec["path"])
    raise ConfigError(f"unknown space kind {kind!r}")


# grid nodes of a config's input functions: a bits-accuracy config's over
# all levels, or embed-check's f.  On a 2-vCPU x86-64 VM the shipped sweep
# at 2^22 nodes (input_resolution 2^21) peaks at 84 MB RSS (37 MB at 8) in
# the same 0.2 s, and the shipped embed-check at f.grid_res 2^22 - 1 at
# 131 MB (58 MB at 16) in 1.0-1.1 s (0.6 s); the sweep at 2^24, 434 MB.
INPUT_NODE_LIMIT = 1 << 22


def constant_input_space(levels: Sequence[float], resolution: int):
    """Constant grid inputs u_i = c_i; their sup distances are |c_i - c_j|.

    Returns (metric space over the levels, list of matching grid inputs).
    Inputs of more than INPUT_NODE_LIMIT nodes in all raise
    SizeLimitExceeded before any grid is allocated.
    """
    nodes = len(levels) * resolution
    if nodes > INPUT_NODE_LIMIT:
        raise SizeLimitExceeded(
            f"input_resolution {resolution} on {len(levels)} levels needs "
            f"{nodes} input grid nodes, above the budget of "
            f"{INPUT_NODE_LIMIT}")
    levels = [float(c) for c in levels]
    space = ms.FiniteMetricSpace.from_coords(np.array(levels)[:, None],
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
    return ResultTable(columns, rows, {})


def _expectation_dim(cfg: dict) -> int:
    if "dim" in cfg:
        return cfg["dim"]
    sel = cfg["dim_select"]
    try:
        return pk.select_embedding_dimension(sel["eps"], sel["c1"], sel["c2"],
                                             sel["alpha"])
    except (ValueError, OverflowError) as err:  # c1 <= c2, or past a float
        raise ConfigError(f"dim_select: {err}") from err


def _run_expectation_chain(cfg: dict) -> ResultTable:
    seed = cfg["seed"]
    dim = _expectation_dim(cfg)
    j_max = rf.KLMeasure.config_truncation(cfg["kl"])
    if dim > j_max:
        raise ConfigError("embedding dimension exceeds the KL truncation")
    if dim > 3:
        raise ConfigError(f"bump families need dimension 1, 2 or 3, not {dim}")
    rf.check_mc_budget(j_max, cfg["mc_samples"], dim)
    measure = rf.KLMeasure.from_config(cfg["kl"])
    p = float(cfg["p"])
    cells = cfg["cells"]
    # check the grid before building the code, which can take seconds
    lam = pk.bump_lam(dim, cells, cfg["grid_res"], None)
    try:
        code = pk.gilbert_varshamov(cells**dim)
    except ValueError as err:  # longer than MAX_CODE_LENGTH
        raise ConfigError(f"cells^dim: {err}") from err
    family = pk.build_bump_family(dim, cells, cfg["grid_res"], code, lam)

    lam_d = float(measure.eigenvalues[dim - 1])
    scale = math.sqrt(lam_d) / measure.density_bound
    predicted_min = scale * family.l1_floor
    log2_size_bound = (code.length / 8.0) * math.log2(math.e)

    # every pair (i, j), i < j, in row-major order
    first, second = np.triu_indices(code.size, 1)
    max_pairs = cfg["max_pairs"]
    pair_rng = stream(seed, STREAM_CHAIN_PAIRS)
    if len(first) > max_pairs:
        keep = np.sort(pair_rng.choice(len(first), size=max_pairs, replace=False))
        first, second = first[keep], second[keep]
    pairs = list(zip(first.tolist(), second.tolist()))

    columns = ["code_size", "log2_size_bound", "dim", "cells",
               "predicted_min_sep", "pair_a", "pair_b", "mc_dist", "mc_stderr",
               "quad_dist", "zscore", "passed"]
    # pair t reads stream seed + t
    diffs = [rf.EmbeddedFunctional(rf.GridFunction01(
        dim, family.member_on_nodes(a) - family.member_on_nodes(b)),
        measure, scale) for a, b in pairs]
    reports = rf.isometry_checks(diffs, p, cfg["mc_samples"],
                                 [seed + t for t in range(len(pairs))])
    # passed: the separation check and the isometry gate
    rows = [(code.size, log2_size_bound, dim, cells, predicted_min, a, b,
             r.mc.estimate, r.mc.stderr, r.quad_moment ** (1.0 / p), r.zscore,
             r.mc.estimate >= predicted_min - 3 * r.mc.stderr and r.consistent)
            for (a, b), r in zip(pairs, reports)]
    return ResultTable(columns, rows,
                       {"code_size_ok": code.size >= code.target_size})


def _run_bits_accuracy(cfg: dict) -> ResultTable:
    seed = cfg["seed"]
    tspec = cfg["targets"]
    hat = tspec["kind"] == "hat-on-constants"
    space, inputs = constant_input_space(
        tspec["levels"] if hat else [0.0, 1.0], cfg["input_resolution"])
    if hat:
        eps = tspec["eps"]
        fam = pk.build_hat_family(space, eps)
        # row s has sign j = bit j of s; a value has one nonzero term at most
        s = np.arange(fam.size)[:, None]
        targets = fam.member((s >> np.arange(fam.n_centers)) & 1)
        n6 = ms.exact_covering_number(space, 6 * eps).count
        floor = (pk.entropy_lower_bound_uniform(math.log2(n6)),)
    else:  # singleton-constant
        targets = np.full((1, len(inputs)), tspec["value"])
        floor = ()

    hypers = [_hyper(h) for h in cfg["hypers"]]
    try:
        grids = [qz.QuantGrid(g["m"], g["delta"]) for g in cfg["grids"]]
    except ValueError as err:  # delta above 2 M
        raise ConfigError(f"grid: {err}") from err
    front = qz.accuracy_bits_sweep(targets, hypers, grids, inputs, seed,
                                   max_random=cfg["max_random"])
    columns = ["bits", "minimax_err", "hyper_id", "grid_id", "seed"]
    columns += ["entropy_floor"] * len(floor)
    rows = [(r.bits, r.minimax_err, r.hyper_id, r.grid_id, r.seed) + floor
            for r in front]
    return ResultTable(columns, rows, {
        "random_search_rows": sum(1 for r in front if not r.exhaustive)})


# experiment -> (schema, runner)
_EXPERIMENTS = {
    "uniform-chain": (UNIFORM_SCHEMA, _run_uniform_chain),
    "expectation-chain": (EXPECTATION_SCHEMA, _run_expectation_chain),
    "bits-accuracy": (BITS_SCHEMA, _run_bits_accuracy),
}


def run_experiment(cfg: dict) -> ResultTable:
    """Validate cfg and run its experiment on a copy with the schema's
    defaults filled; the table's metadata holds the seed, the hash of cfg
    as given, the experiment and version, and the runner's own keys."""
    schema, runner = _EXPERIMENTS[validate_config(cfg)["experiment"]]
    table = runner(_with_defaults(schema, cfg))
    table.metadata = {"seed": cfg["seed"], "config_hash": config_hash(cfg),
                      "experiment": cfg["experiment"],
                      "version": __version__, **table.metadata}
    return table


def run_embed_check(cfg: dict) -> rf.IsometryReport:
    """Validate an embed-check config and compare, for its f under its
    measure, the Monte-Carlo p-th moment with cube quadrature."""
    cfg = _with_defaults(EMBED_CHECK_SCHEMA, _check(EMBED_CHECK_SCHEMA, cfg))
    fspec = cfg["f"]
    if fspec["kind"] == "constant":
        f = rf.GridFunction01.constant(fspec["value"])
    else:
        nodes = fspec["grid_res"] + 1
        if nodes > INPUT_NODE_LIMIT:
            raise SizeLimitExceeded(
                f"f.grid_res {fspec['grid_res']} needs {nodes} grid nodes, "
                f"above the budget of {INPUT_NODE_LIMIT}")
        f = rf.GridFunction01.from_callable(
            lambda x: x[:, 0], 1, fspec["grid_res"], lipschitz=1.0)
    rf.check_mc_budget(rf.KLMeasure.config_truncation(cfg["kl"]),
                       cfg["samples"], f.dim)
    return rf.isometry_check(f, rf.KLMeasure.from_config(cfg["kl"]),
                             cfg["p"], cfg["samples"], cfg["seed"])
