"""Batch verification front-end.

One subcommand per lemma family plus ``all`` and ``verify-certificate``.
A JSON config file (``--config`` or $CONECHECK_CONFIG) overrides flags;
reports are deterministic given (config, seed).
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from .covering import ConjugateProductCertificate
from .intnorm import FactorialGenerators
from .report import (
    ConfigInvalidError,
    RunConfig,
    SUITE_NAMES,
    load_config_file,
)
from .suites import run_suite
# after .suites, which loads coneprobe: loading it first, before covering,
# raised the peak RSS of every benchmark workload by 1-1.5 MB
from .coneprobe import CONVERGENCE_TOL, TAIL_FRACTION


class MalformedCertificateError(ValueError):
    pass


class RecompositionMismatchError(ValueError):
    pass


_SCALE_FLAGS = [
    click.option("--max-degree", type=int, default=None,
                 help="Ceiling on the exhaustive symmetric-group degrees."),
    click.option("--samples", type=int, default=None,
                 help="Rescale the sampled checks (random pairs, certificates)."),
    click.option("--tau", type=float, default=None,
                 help="Relative singular-value threshold (default 1e-8)."),
    click.option("--seed", type=int, default=None, help="Random seed (default 2020)."),
    click.option("--out", type=click.Path(), default=None,
                 help="Write the JSON report here (plus a .series.csv companion)."),
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="JSON config file; overrides flags ($CONECHECK_CONFIG)."),
]


def _with_scale_flags(fn):
    for flag in reversed(_SCALE_FLAGS):
        fn = flag(fn)
    return fn


def _build_config(suites, max_degree, samples, tau, seed, out, config_path) -> RunConfig:
    cfg = RunConfig(suites=tuple(suites))
    cfg.apply_ceiling(max_degree)
    cfg.apply_samples(samples)
    if tau is not None:
        cfg.tau = tau
    if seed is not None:
        cfg.seed = seed
    if out is not None:
        cfg.out = out
    overrides = load_config_file(config_path)
    if overrides:
        merged = cfg.as_dict()
        merged.update(overrides)
        cfg = RunConfig.from_dict(merged)
    return cfg


def _execute(suites, **kwargs):
    try:
        cfg = _build_config(suites, **kwargs)
        cfg.validate()
    except ConfigInvalidError as exc:
        click.echo(f"config invalid: {exc}", err=True)
        sys.exit(2)
    code, report = run_suite(cfg, echo=click.echo)
    click.echo(f"{report['counts']['total']} checks, "
               f"{report['counts']['failed']} failed -> {report['status']}")
    sys.exit(code)


@click.group()
def main():
    """Finite-scale verification of norm, contraction and covering lemmas."""


def _register(name: str, doc: str):
    @main.command(name=name, help=doc)
    @_with_scale_flags
    def _cmd(**kwargs):
        _execute((name,), **kwargs)

    return _cmd


_register("norms", "Norm sandwiches, BFS oracles and domination audits.")
_register("cutting", "Cutting-map bounds, splitting and displacement.")
_register("covering", "Brenner covering, Ore witnesses, conjugate certificates.")
_register("intnorm", "The factorial-generator word norm on the integers.")
_register("matnorm", "Rank norms and the three matrix projections.")
_register("products", "Free-product and direct-sum projection conditions.")
_register("coneprobe", "Circle correspondence and staged contraction checks.")
_register("determinism", "Byte-identical reports for identical config and seed.")


@main.command(name="all", help="Run every suite (the full acceptance run).")
@click.option("--suite", "chosen", multiple=True,
              type=click.Choice(SUITE_NAMES), help="Restrict to these suites.")
@_with_scale_flags
def run_all(chosen, **kwargs):
    _execute(tuple(chosen) if chosen else SUITE_NAMES, **kwargs)


@main.command(name="integer-norm",
              help="Exact word norm of an integer in the factorial generators. "
                   "TARGET is decimal, 'x(n)' or 'x(n,t)'.")
@click.argument("target")
# the search grows about fourfold every two depths: 3.4-5.3 s at 20 and 17.5 s
# at 22 on targets near 10^9-10^17 whose norm lies beyond the cap
@click.option("--depth", type=click.IntRange(1, 20), default=16, help="Search depth cap, 1..20.")
@click.option("--base", type=click.IntRange(min=2), default=None,
              help="Generator base t (overrides the one in 'x(n,t)').")
@click.option("--out", type=click.Path(), default=None,
              help="Write the result as a verifiable certificate file.")
def integer_norm_command(target, depth, base, out):
    from .intnorm import IndexBudgetExceededError, norm_exact, parse_target

    try:
        value, parsed_base = parse_target(target)
    except ValueError as exc:
        click.echo(f"bad target: {exc}", err=True)
        sys.exit(2)
    t = base or parsed_base
    gens = FactorialGenerators(base=t, max_index=max(depth + 4, 16))
    try:
        result = norm_exact(value, gens, depth_cap=depth)
    except IndexBudgetExceededError as exc:
        click.echo(f"target out of range: {exc}", err=True)
        sys.exit(2)
    payload = {
        "kind": "integer-norm",
        "target": value,
        "base": t,
        "modeled_generating_set": t != 2,
        **result.as_dict(),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    click.echo(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    sys.exit(0 if result.value is not None else 1)


@main.command(name="probe-sequence",
              help="Admissibility and tail statistics for a declarative "
                   "sequence file; writes a CSV series next to --out.")
@click.argument("path", type=click.Path(exists=True))
@click.option("--bound", type=float, default=1.0, help="Admissibility bound.")
@click.option("--tail", type=click.FloatRange(0, 1, min_open=True), default=TAIL_FRACTION,
              help="Tail fraction, in (0, 1].")
@click.option("--tol", type=click.FloatRange(min=0), default=CONVERGENCE_TOL,
              help="Convergence tolerance, at least 0.")
@click.option("--out", type=click.Path(), default=None, help="JSON summary path.")
def probe_sequence_command(path, bound, tail, tol, out):
    import csv as _csv

    from .coneprobe import admissibility, estimate_limit, load_sequence

    # the summary is JSON, which has no infinity or NaN, and FloatRange passes nan
    for flag, value in (("--bound", bound), ("--tail", tail), ("--tol", tol)):
        if not math.isfinite(value):
            click.echo(f"bad {flag}: {value} is not a finite number", err=True)
            sys.exit(2)
    try:
        with open(path) as fh:
            seq = load_sequence(json.load(fh))
        estimate = estimate_limit(seq.normalized(), tail, tol)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"bad sequence description in {path}: {exc}", err=True)
        sys.exit(2)
    ok, witness = admissibility(seq, bound)
    summary = {
        "label": seq.label,
        "stages": len(seq.stages),
        "admissible": ok,
        "admissibility_witness": witness,
        "estimate": estimate.as_dict(),
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    click.echo(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        with open(out + ".series.csv", "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["stage", "norm", "normalized"])
            for (n, norm), value in zip(seq.stages, seq.normalized()):
                writer.writerow([n, norm, value])
    sys.exit(0)


@main.command(name="verify-certificate",
              help="Re-verify a certificate file independently of its producer.")
@click.argument("path", type=click.Path(exists=True))
def verify_certificate_command(path):
    try:
        outcome = verify_certificate(path)
    except MalformedCertificateError as exc:
        click.echo(f"malformed certificate: {exc}", err=True)
        sys.exit(2)
    except RecompositionMismatchError as exc:
        click.echo(f"FAIL: {exc}", err=True)
        sys.exit(1)
    click.echo(outcome)
    sys.exit(0)


def verify_certificate(path) -> str:
    """Recompose a stored certificate; raises on mismatch.

    Handles conjugate-product certificates (cycle-notation permutations) and
    integer-norm certificates (signed generator lists).
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedCertificateError(str(exc)) from exc
    if not isinstance(data, dict):
        raise MalformedCertificateError(f"expected a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "conjugate-product":
        try:
            cert = ConjugateProductCertificate.from_json_dict(data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedCertificateError(str(exc)) from exc
        recomposed = cert.recomposed()
        if recomposed != cert.target:
            raise RecompositionMismatchError(
                f"factors recompose to {recomposed}, certificate names {cert.target}")
        return (f"OK: {len(cert.factors)} conjugates of {cert.base} "
                f"recompose to {cert.target}")
    if kind == "integer-norm":
        try:
            target = int(data["target"])
            base = int(data.get("base", 2))
            terms = [int(t) for t in data["certificate"]]
            members = set(FactorialGenerators(base=base, max_index=64).members)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedCertificateError(str(exc)) from exc
        outside = [t for t in terms if abs(t) not in members]
        if outside:
            raise MalformedCertificateError(f"terms outside the generating set: {outside}")
        if sum(terms) != target:
            raise RecompositionMismatchError(f"terms sum to {sum(terms)}, not {target}")
        return f"OK: {len(terms)} generators sum to {target}"
    raise MalformedCertificateError(f"unknown certificate kind {kind!r}")


def run():
    """main, then an exit that skips the interpreter's teardown (about 0.03 s);
    the worker is reaped and the report closed by then.  Tests call main."""
    try:
        main()
    except SystemExit as exc:  # every command leaves by sys.exit with an int
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exc.code or 0)


if __name__ == "__main__":
    run()
