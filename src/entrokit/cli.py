"""Command-line interface.

Subcommands mirror the library surface: codelength, hat, gv, bump,
embed-check, fno, quantize, sweep, chain-uniform, chain-expectation.
Reports print as JSON on stdout (fno prints its scalar), and with --out
the same text also goes to that file; tables write CSV via --out.  The
process exits 0 only when every pass flag in the run is true.
"""

from __future__ import annotations

import json
import math
import sys

import click

from . import __version__
from . import chains
from . import fno as fno_mod
from . import metricspace as ms
from . import packing as pk
from . import quantizer as qz
from . import randomfield as rf
from .errors import (ChannelMismatch, ConfigError, EntrokitError,
                     EpsilonTooLarge, FamilyTooLarge, GridMisaligned,
                     LayoutMismatch, NoPacking, OutOfRange, ResolutionTooLow,
                     SizeLimitExceeded)
from .rng import STREAM_PARAM_GEN, stream


def _echo(text: str, path=None) -> None:
    """Print text; with a path, also write the same line there atomically."""
    click.echo(text)
    if path:
        chains.write_atomic(path, (text + "\n").encode("utf-8"))


def _emit(obj, path=None) -> None:
    """Print obj as JSON, and write it to path as _echo does."""
    _echo(json.dumps(obj, indent=2, sort_keys=True), path)


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


@click.group()
@click.version_option(__version__)
@click.option("--seed", type=click.IntRange(0, chains.SEED_MAX), default=None,
              help="Root seed override.")
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Default config file for subcommands that accept one.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Default output file: the CSV of a table, or the printed "
                   "report of any other subcommand.")
@click.pass_context
def main(ctx, seed, config_path, out_path):
    """Metric-entropy constructions, packings, embeddings, and quantized
    output-averaged Fourier neural operators."""
    ctx.obj = {"seed": seed, "config": config_path, "out": out_path}


def _resolve(ctx, key, local):
    return local if local is not None else ctx.obj.get(key)


def _config_path(ctx, local):
    path = _resolve(ctx, "config", local)
    if path is None:
        raise click.UsageError("a config file is required (--config)")
    return path


def _unread(ctx, *keys) -> None:
    """Reject the group options named by keys: this subcommand reads none."""
    for key in keys:
        if ctx.obj.get(key) is not None:
            raise click.UsageError(
                f"{ctx.info_name} does not read the group --{key}")


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
@click.option("--space", "space_path", type=click.Path(exists=True), required=True)
@click.option("--eps", type=_POSITIVE, required=True)
@click.option("--decoder", type=click.Choice(["ambient", "restricted", "both"]),
              default="ambient", show_default=True)
@click.pass_context
def codelength(ctx, space_path, eps, decoder):
    """Covering number, entropy, and minimax code length of a space file."""
    _unread(ctx, "seed", "config")
    space = _load_space(space_path)
    try:
        report = ms.code_length_report(space, eps)
    except SizeLimitExceeded as exc:
        raise click.BadParameter(str(exc), param_hint="--space") from exc
    out = {"N": report["N"], "H": report["H"], "B": report["B"]}
    if decoder == "restricted":
        out["B"] = report["B_restricted"]
    elif decoder == "both":
        out["B_restricted"] = report["B_restricted"]
    _emit(out, _resolve(ctx, "out", None))


@main.command()
@click.option("--space", "space_path", type=click.Path(exists=True), required=True)
@click.option("--eps", type=_POSITIVE, required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def hat(ctx, space_path, eps, out_path):
    """Build and verify a hat family; print its manifest."""
    _unread(ctx, "seed", "config")
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
    _emit(manifest, _resolve(ctx, "out", out_path))
    _finish(rep.ok)


def _sign_code(n: int) -> pk.SignCode:
    """The volume-bound code of length n; one whose coset table is too
    large is a usage error of the option --n."""
    try:
        return pk.gilbert_varshamov(n)
    except SizeLimitExceeded as exc:
        raise click.BadParameter(str(exc), param_hint="--n") from exc


@main.command()
@click.option("--n", type=click.IntRange(4, pk.MAX_CODE_LENGTH),
              required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def gv(ctx, n, out_path):
    """Greedy sign code of length n; print its manifest."""
    _unread(ctx, "seed", "config")
    code = _sign_code(n)
    manifest = code.manifest()
    manifest["measured_min_distance"] = code.pairwise_min_hamming()
    ok = (manifest["measured_min_distance"] >= code.min_distance
          and code.size >= code.target_size)
    manifest["ok"] = ok
    _emit(manifest, _resolve(ctx, "out", out_path))
    _finish(ok)


@main.command()
@click.option("--d", "dim", type=click.IntRange(1, 3), required=True)
@click.option("--n", "cells", type=click.IntRange(min=2), required=True,
              help="Cells per axis.")
@click.option("--grid", "grid_res", type=click.IntRange(min=1), required=True)
@click.option("--lam", type=float, default=None,
              help="Plateau parameter; defaults to 1/(1+d).")
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def bump(ctx, dim, cells, grid_res, lam, out_path):
    """Build and verify a bump family; print its manifest and report."""
    _unread(ctx, "seed", "config")
    length = cells**dim
    if length > pk.MAX_CODE_LENGTH:
        raise click.BadParameter(
            f"{cells}^{dim} cells need a sign code longer than "
            f"{pk.MAX_CODE_LENGTH}", param_hint="--n")
    if lam is not None and not 0 < lam < 1:
        raise click.BadParameter(f"{lam} is not in (0, 1)", param_hint="--lam")
    try:
        lam = pk.bump_lam(dim, cells, grid_res, lam)
    except (GridMisaligned, SizeLimitExceeded) as exc:
        raise click.BadParameter(str(exc), param_hint="--grid") from exc
    fam = pk.build_bump_family(dim, cells, grid_res, _sign_code(length), lam)
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
    _emit(manifest, _resolve(ctx, "out", out_path))
    _finish(rep.ok)


@main.command("embed-check")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None)
@click.pass_context
def embed_check(ctx, config_path):
    """Isometry report for an embedded grid function (JSON config).

    Config keys (chains.EMBED_CHECK_SCHEMA): kl (measure block), f
    ("constant"|"coordinate" with optional value/grid_res), p, samples, seed.
    """
    path = _config_path(ctx, config_path)
    try:
        cfg = chains.load_embed_check_config(path)
        measure = rf.KLMeasure.from_config(cfg["kl"])
        fspec = cfg.get("f", {"kind": "coordinate"})
        if fspec["kind"] == "constant":
            f = rf.GridFunction01.constant(fspec.get("value", 1.0))
        else:
            f = rf.GridFunction01.from_callable(
                lambda x: x[:, 0], 1, fspec.get("grid_res", 16), lipschitz=1.0)
        seed = _resolve(ctx, "seed", None)
        if seed is None:
            seed = cfg.get("seed", 0)
        report = rf.isometry_check(f, measure, cfg.get("p", 2),
                                   cfg.get("samples", 100000), seed)
    except EntrokitError as exc:
        raise click.BadParameter(str(exc), param_hint="--config") from exc
    _emit({
        "mc_moment": report.mc_moment,
        "quad_moment": report.quad_moment,
        "zscore": report.zscore,
        "estimate": report.mc.estimate,
        "stderr": report.mc.stderr,
        "consistent": report.consistent,
    }, _resolve(ctx, "out", None))
    _finish(report.consistent)


@main.command("fno")
@click.option("--hyper", "hyper_path", type=click.Path(exists=True), required=True)
@click.option("--params", "params_path", type=click.Path(exists=True), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.pass_context
def fno_eval(ctx, hyper_path, params_path, input_path):
    """Evaluate an output-averaged operator; print the scalar."""
    _unread(ctx, "seed", "config")
    hyper = _forward_hyper(hyper_path)
    try:
        params = fno_mod.load_params(hyper, params_path)
    except LayoutMismatch as exc:
        raise click.BadParameter(str(exc), param_hint="--params") from exc
    try:
        u = fno_mod.GridFunction.from_json(chains.read_config(input_path))
    except ConfigError as exc:
        raise click.BadParameter(str(exc), param_hint="--input") from exc
    try:
        value = fno_mod.forward(params, u)
    except (ChannelMismatch, ResolutionTooLow) as exc:  # u does not fit hyper
        raise click.BadParameter(str(exc), param_hint="--input") from exc
    _echo("%.17g" % value, _resolve(ctx, "out", None))


@main.command("quantize")
@click.option("--hyper", "hyper_path", type=click.Path(exists=True), required=True)
@click.option("--delta", type=_POSITIVE, required=True,
              help="Grid spacing, at most 2 M.")
@click.option("--m", "--M", "box", type=_POSITIVE, required=True,
              help="Parameter range M.")
@click.option("--seed", type=click.IntRange(0, chains.SEED_MAX), default=None)
@click.option("--n-inputs", type=click.IntRange(min=1), default=64,
              show_default=True)
@click.option("--probes", type=click.IntRange(min=100), default=128,
              show_default=True)
@click.option("--c", "c_override", type=_FiniteFloat(min=0), default=None,
              help="Skip calibration and use this C in the bound.")
@click.pass_context
def quantize_cmd(ctx, hyper_path, delta, box, seed, n_inputs, probes, c_override):
    """End-to-end quantization certificate for a random parameter vector."""
    _unread(ctx, "config")
    if delta > 2 * box:
        raise click.BadParameter(f"{delta} is above 2 M = {2 * box}",
                                 param_hint="--delta")
    try:
        grid = qz.QuantGrid(box, delta)
    except OutOfRange as exc:
        raise click.BadParameter(str(exc),
                                 param_hint=["--m", "--delta"]) from exc
    hyper = _forward_hyper(hyper_path)
    seed = _resolve(ctx, "seed", seed)
    if seed is None:
        seed = 0
    inputs = fno_mod.random_inputs(hyper, n_inputs, seed)
    if c_override is None:
        try:
            c_value = qz.calibrate_c(hyper, box, inputs, probes, seed)
        except OutOfRange as exc:
            raise click.BadParameter(str(exc), param_hint="--m") from exc
    else:
        c_value = c_override
    log2_bound = qz.theoretical_lip_bound(qz.LipBoundInputs(
        hyper.depth, hyper.d_c, hyper.kappa, hyper.dim, box, c_value))
    try:
        bound = 2.0**log2_bound
    except OverflowError:
        bound = math.inf
    hint = ["--m"] if c_override is None else ["--m", "--c"]
    if math.isinf(bound):
        raise click.BadParameter(
            f"the Lipschitz bound 2^{log2_bound:.6g} overflows a float",
            param_hint=hint)
    # QuantCertificate.bound, which a pass flag must not compare when infinite
    if math.isinf(bound * delta / 2.0):
        raise click.BadParameter(
            f"the certified bound 2^{log2_bound:.6g} * {delta} / 2 overflows "
            "a float", param_hint=hint + ["--delta"])
    rng = stream(seed, STREAM_PARAM_GEN)
    params = fno_mod.FnoParams.random(hyper, box, rng)
    cert = qz.certify_quantization(params, grid, inputs, bound)
    _emit({
        "measured_err": cert.measured_err,
        "lip_estimate": cert.lip_estimate,
        "log2_lip_bound": log2_bound,
        "calibrated_c": c_value,
        "delta": cert.delta,
        "bound": cert.bound,
        "passed": cert.passed,
    }, _resolve(ctx, "out", None))
    _finish(cert.passed)


def _run_table(ctx, config, out, experiment):
    try:
        cfg = chains.read_config(_config_path(ctx, config))
    except ConfigError as exc:
        raise click.BadParameter(str(exc), param_hint="--config") from exc
    kind = cfg.get("experiment") if isinstance(cfg, dict) else None
    if kind != experiment:
        raise click.UsageError(f"config is for {kind!r}, expected {experiment!r}")
    seed = _resolve(ctx, "seed", None)
    if seed is not None:
        cfg = dict(cfg, seed=seed)
    try:
        table = chains.run_experiment(cfg)
    except EntrokitError as exc:
        raise click.BadParameter(str(exc), param_hint="--config") from exc
    path = _resolve(ctx, "out", out)
    if path:
        table.write(path)
    else:
        click.echo(table.to_csv_bytes().decode("utf-8"), nl=False)
    _emit({"metadata": table.metadata, "rows": len(table.rows),
           "all_passed": table.all_passed})
    _finish(table.all_passed)


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def sweep(ctx, config, out):
    """Bits-versus-accuracy Pareto sweep (CSV)."""
    _run_table(ctx, config, out, "bits-accuracy")


@main.command("chain-uniform")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def chain_uniform(ctx, config, out):
    """Uniform-setting entropy chain (CSV)."""
    _run_table(ctx, config, out, "uniform-chain")


@main.command("chain-expectation")
@click.option("--config", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def chain_expectation(ctx, config, out):
    """Expectation-setting packing chain (CSV)."""
    _run_table(ctx, config, out, "expectation-chain")


if __name__ == "__main__":
    main()
