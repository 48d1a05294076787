"""Command-line interface.

Subcommands mirror the library surface: codelength, hat, gv, bump,
embed-check, fno, quantize, sweep, chain-uniform, chain-expectation.
Reports print as JSON on stdout (fno prints its scalar), and with --out
the same text also goes to that file; tables write CSV via --out.  Each
subcommand declares every option it reads, so any other option is a usage
error.  The process exits 0 only when every pass flag in the run is true.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import __version__
from . import chains
from . import fno as fno_mod
from . import metricspace as ms
from . import packing as pk
from . import quantizer as qz
from .errors import (ChannelMismatch, ConfigError, EntrokitError,
                     EpsilonTooLarge, FamilyTooLarge, GridMisaligned,
                     LayoutMismatch, NoPacking, OutOfRange, ResolutionTooLow,
                     SizeLimitExceeded, read_json)
from .rng import STREAM_PARAM_GEN, stream


def _echo(text: str, path=None) -> None:
    """Print text; with a path, also write the same line there atomically."""
    click.echo(text)
    if path:
        chains.write_atomic(path, (text + "\n").encode("utf-8"))


def _finite_or_null(obj):
    """obj with each non-finite float, in nested dicts and lists, as None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(obj, path=None) -> None:
    """Print obj as standard JSON, a non-finite float as null (the exit
    status carries the verdict), and write it to path as _echo does."""
    _echo(json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                     allow_nan=False), path)


def _finish(ok: bool) -> None:
    sys.exit(0 if ok else 1)


class _FiniteFloat(click.FloatRange):
    """A FloatRange that also refuses nan and the infinities."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number", param, ctx)
        return rv


_POSITIVE = _FiniteFloat(min=0, min_open=True)

_SEED = click.option("--seed", type=click.IntRange(0, chains.SEED_MAX),
                     default=None, help="Root seed; overrides the config's.")
_FILE = click.Path(exists=True, dir_okay=False)
_CONFIG = click.option("--config", "config_path", required=True, type=_FILE)
_OUT = click.option("--out", "out_path", type=click.Path(), default=None,
                    help="Output file: a table's CSV, or a copy of the "
                         "printed report.")


@click.group()
@click.version_option(__version__)
def main():
    """Metric-entropy constructions, packings, embeddings, and quantized
    output-averaged Fourier neural operators."""


def _forward_hyper(path) -> fno_mod.FnoHyper:
    """A hyper file for the output-averaged forward, which needs d_out 1."""
    try:
        hyper = chains.load_hyper(path)
    except ConfigError as exc:
        raise click.BadParameter(str(exc), param_hint="--hyper") from exc
    if hyper.d_out != 1:
        raise click.BadParameter(
            f"the output-averaged operator needs d_out = 1, not {hyper.d_out}",
            param_hint="--hyper")
    return hyper


def _load_space(path) -> ms.FiniteMetricSpace:
    try:
        return ms.FiniteMetricSpace.from_file(path)
    except ConfigError as exc:
        raise click.BadParameter(str(exc), param_hint="--space") from exc


@main.command()
@click.option("--space", "space_path", type=_FILE, required=True)
@click.option("--eps", type=_POSITIVE, required=True)
@_OUT
def codelength(space_path, eps, out_path):
    """Covering number, entropy, and minimax code length of a space file."""
    space = _load_space(space_path)
    try:
        report = ms.code_length_report(space, eps)
    except SizeLimitExceeded as exc:
        raise click.BadParameter(str(exc), param_hint="--space") from exc
    _emit({"N": report["N"], "H": report["H"], "B": report["B"]}, out_path)


@main.command()
@click.option("--space", "space_path", type=_FILE, required=True)
@click.option("--eps", type=_POSITIVE, required=True)
@_OUT
def hat(space_path, eps, out_path):
    """Build and verify a hat family; print its manifest."""
    space = _load_space(space_path)
    try:
        fam = pk.build_hat_family(space, eps)
    except (EpsilonTooLarge, NoPacking, FamilyTooLarge) as exc:
        raise click.BadParameter(str(exc), param_hint="--eps") from exc
    rep = fam.verify()
    manifest = fam.manifest()
    manifest["verification"] = {
        "min_pairwise_supdist": rep.min_pairwise_supdist,
        "pairwise_exhaustive": rep.pairwise_exhaustive,
        "sup_max": rep.sup_max,
        "lipschitz_max": rep.lipschitz_max,
        "ok": rep.ok,
    }
    _emit(manifest, out_path)
    _finish(rep.ok)


def _sign_code(n: int) -> pk.SignCode:
    """The volume-bound code of length n; one that is too long, or whose
    coset table is too large, is a usage error of the option --n."""
    try:
        return pk.gilbert_varshamov(n)
    except (ValueError, SizeLimitExceeded) as exc:
        raise click.BadParameter(str(exc), param_hint="--n") from exc


@main.command()
@click.option("--n", type=click.IntRange(4, pk.MAX_CODE_LENGTH),
              required=True)
@_OUT
def gv(n, out_path):
    """Greedy sign code of length n; print its manifest."""
    code = _sign_code(n)
    manifest = code.manifest()
    manifest["measured_min_distance"] = code.pairwise_min_hamming()
    ok = (manifest["measured_min_distance"] >= code.min_distance
          and code.size >= code.target_size)
    manifest["ok"] = ok
    _emit(manifest, out_path)
    _finish(ok)


@main.command()
@click.option("--d", "dim", type=click.IntRange(1, 3), required=True)
@click.option("--n", "cells", type=click.IntRange(min=2), required=True,
              help="Cells per axis.")
@click.option("--grid", "grid_res", type=click.IntRange(min=1), required=True)
@click.option("--lam", type=float, default=None,
              help="Plateau parameter; defaults to 1/(1+d).")
@_OUT
def bump(dim, cells, grid_res, lam, out_path):
    """Build and verify a bump family; print its manifest and report."""
    # the grid and lam are checked before the code, which can take seconds
    try:
        lam = pk.bump_lam(dim, cells, grid_res, lam)
    except (GridMisaligned, SizeLimitExceeded) as exc:
        raise click.BadParameter(str(exc), param_hint="--grid") from exc
    except ValueError as exc:  # lam outside (0, 1), or NaN
        raise click.BadParameter(str(exc), param_hint="--lam") from exc
    fam = pk.build_bump_family(dim, cells, grid_res, _sign_code(cells**dim),
                               lam)
    rep = fam.verify()
    manifest = fam.manifest()
    manifest["verification"] = {
        "min_pairwise_l1": rep.min_pairwise_l1,
        "pairwise_lower": rep.pairwise_lower,
        "l1_floor": rep.l1_floor,
        "sup_max": rep.sup_max,
        "lipschitz_max": rep.lipschitz_max,
        "cell_profile_l1": rep.cell_profile_l1,
        "ok": rep.ok,
    }
    _emit(manifest, out_path)
    _finish(rep.ok)


@main.command("embed-check")
@_CONFIG
@_SEED
@_OUT
def embed_check(config_path, seed, out_path):
    """Isometry report for an embedded grid function (JSON config).

    The config's keys, bounds and defaults are in the README's table of
    config keys (schema chains.EMBED_CHECK_SCHEMA).
    """
    try:
        cfg = read_json(config_path)
        if seed is not None and isinstance(cfg, dict):
            cfg = dict(cfg, seed=seed)
        report = chains.run_embed_check(cfg)
    except EntrokitError as exc:
        raise click.BadParameter(str(exc), param_hint="--config") from exc
    _emit({
        "mc_moment": report.mc_moment,
        "quad_moment": report.quad_moment,
        "zscore": report.zscore,
        "estimate": report.mc.estimate,
        "stderr": report.mc.stderr,
        "consistent": report.consistent,
    }, out_path)
    _finish(report.consistent)


@main.command("fno")
@click.option("--hyper", "hyper_path", type=_FILE, required=True)
@click.option("--params", "params_path", type=_FILE, required=True)
@click.option("--input", "input_path", type=_FILE, required=True)
@_OUT
def fno_eval(hyper_path, params_path, input_path, out_path):
    """Evaluate an output-averaged operator; print the scalar."""
    hyper = _forward_hyper(hyper_path)
    try:
        params = fno_mod.load_params(hyper, params_path)
    except (LayoutMismatch, SizeLimitExceeded) as exc:
        raise click.BadParameter(str(exc),
                                 param_hint=["--hyper", "--params"]) from exc
    try:
        u = fno_mod.GridFunction.from_json(read_json(input_path))
    except ConfigError as exc:
        raise click.BadParameter(str(exc), param_hint="--input") from exc
    try:
        # forward keeps a NaN or inf for its callers; here it is refused
        with np.errstate(over="ignore", invalid="ignore"):
            value = fno_mod.forward(params, u)
    except (ChannelMismatch, ResolutionTooLow) as exc:  # u does not fit hyper
        raise click.BadParameter(str(exc), param_hint="--input") from exc
    if not math.isfinite(value):
        raise click.BadParameter(
            f"the operator's value on this input is {value}, not finite",
            param_hint="--input")
    _echo("%.17g" % value, out_path)


@main.command("quantize")
@click.option("--hyper", "hyper_path", type=_FILE, required=True)
@click.option("--delta", type=_POSITIVE, required=True,
              help="Grid spacing, at most 2 M.")
@click.option("--m", "--M", "box", type=_POSITIVE, required=True,
              help="Parameter range M.")
@click.option("--seed", type=click.IntRange(0, chains.SEED_MAX), default=0,
              show_default=True)
@click.option("--n-inputs", type=click.IntRange(min=1), default=64,
              show_default=True)
@click.option("--probes", type=click.IntRange(min=100), default=128,
              show_default=True)
@click.option("--c", "c_override", type=_FiniteFloat(min=0), default=None,
              help="Skip calibration and use this C in the bound.")
@_OUT
def quantize_cmd(hyper_path, delta, box, seed, n_inputs, probes, c_override,
                 out_path):
    """End-to-end quantization certificate for a random parameter vector."""
    try:
        grid = qz.QuantGrid(box, delta)
    except (ValueError, OutOfRange) as exc:  # delta above 2 M, or 2^63 points
        raise click.BadParameter(str(exc),
                                 param_hint=["--m", "--delta"]) from exc
    hyper = _forward_hyper(hyper_path)
    inputs = fno_mod.random_inputs(hyper, n_inputs, seed)
    if c_override is None:
        try:
            c_value = qz.calibrate_c(hyper, box, inputs, probes, seed)
        except OutOfRange as exc:
            raise click.BadParameter(str(exc), param_hint="--m") from exc
        except SizeLimitExceeded as exc:
            raise click.BadParameter(
                str(exc), param_hint=["--hyper", "--probes"]) from exc
    else:
        c_value = c_override
    log2_bound = qz.theoretical_lip_bound(qz.LipBoundInputs(
        hyper.depth, hyper.d_c, hyper.kappa, hyper.dim, box, c_value))
    try:
        bound = 2.0**log2_bound
    except OverflowError:
        bound = math.inf
    # QuantCertificate.bound, which a pass flag must not compare when
    # infinite; checked before any parameter is drawn from the box
    if math.isinf(bound * delta / 2.0):
        raise click.BadParameter(
            f"the certified bound 2^{log2_bound:.6g} * {delta} / 2 overflows "
            "a float", param_hint=["--m", "--delta"]
            + ([] if c_override is None else ["--c"]))
    try:
        params = fno_mod.FnoParams.random(hyper, box,
                                          stream(seed, STREAM_PARAM_GEN))
    except SizeLimitExceeded as exc:
        raise click.BadParameter(str(exc), param_hint="--hyper") from exc
    cert = qz.certify_quantization(params, grid, inputs, bound)
    _emit({
        "measured_err": cert.measured_err,
        "lip_estimate": cert.lip_estimate,
        "log2_lip_bound": log2_bound,
        "calibrated_c": c_value,
        "delta": cert.delta,
        "bound": cert.bound,
        "passed": cert.passed,
    }, out_path)
    _finish(cert.passed)


def _run_table(config_path, seed, out_path, experiment):
    try:
        cfg = read_json(config_path)
        kind = cfg.get("experiment") if isinstance(cfg, dict) else None
        if kind != experiment:
            raise click.UsageError(
                f"config is for {kind!r}, expected {experiment!r}")
        if seed is not None:
            cfg = dict(cfg, seed=seed)
        table = chains.run_experiment(cfg)
    except EntrokitError as exc:
        raise click.BadParameter(str(exc), param_hint="--config") from exc
    if out_path:
        table.write(out_path)
    else:
        click.echo(table.to_csv_bytes().decode("utf-8"), nl=False)
    _emit({"metadata": table.metadata, "rows": len(table.rows),
           "all_passed": table.all_passed})
    _finish(table.all_passed)


@main.command()
@_CONFIG
@_SEED
@_OUT
def sweep(config_path, seed, out_path):
    """Bits-versus-accuracy Pareto sweep (CSV)."""
    _run_table(config_path, seed, out_path, "bits-accuracy")


@main.command("chain-uniform")
@_CONFIG
@_SEED
@_OUT
def chain_uniform(config_path, seed, out_path):
    """Uniform-setting entropy chain (CSV)."""
    _run_table(config_path, seed, out_path, "uniform-chain")


@main.command("chain-expectation")
@_CONFIG
@_SEED
@_OUT
def chain_expectation(config_path, seed, out_path):
    """Expectation-setting packing chain (CSV)."""
    _run_table(config_path, seed, out_path, "expectation-chain")


if __name__ == "__main__":
    main()
