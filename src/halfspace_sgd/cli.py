"""Command-line benchmark harness.

Subcommands
-----------
learn       seeded end-to-end learning trials over a grid of noise levels;
            one CSV row per (opt, seed).
sweep       the per-width diagnostic table behind learn: one row per
            (opt, seed, sigma).
compare     sigmoid-PSGD pipeline vs deterministic full-batch convex
            minimizers vs the quadrature floor, on the same far-flip data.
lowerbound  cone certification: min ||grad C|| over the admissible cone for
            every requested (loss, family).

Configs are flat ``key = value`` text files (lists comma-separated, ``#``
comments, each key at most once). All randomness flows from the declared
seeds, so a rerun with the same config produces a byte-identical CSV;
wall-clock timing is only written when --timing is passed. Exit codes: 0
success, 1 numeric failure (partial CSV keeps a FAILED marker row), 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from . import distributions as dist
from .baselines import full_batch_minimize
from .geometry import angle_between, unit_vector
from .learner import LearnerConfig, default_holdout_size, derive_seed, learn_batch, map_jobs
from .losses import convex_surrogate
from .noise import far_flip, make_dataset
from .oracle import ORACLE_KINDS, QuadratureSpec, admissible_theta, predicted_floor, scan_cone

__all__ = ["main"]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _float_list(v: str) -> tuple[float, ...]:
    return tuple(float(p) for p in v.split(",") if p.strip())


def _str_list(v: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in v.split(",") if p.strip())


# A row is key: (parser, default, check); check is None or (test, text), and
# parse_config raises "<key> <text> (got <value>)" for a value that fails test.
_NONEMPTY = (bool, "must be nonempty")


def _at_least(lo: int) -> tuple:
    return (lambda v: v >= lo, f"must be >= {lo}")


def _opts_below(hi: float, text: str) -> tuple:
    return (lambda v: bool(v) and all(0.0 < o < hi for o in v), f"must be nonempty, each value in (0, {text})")


_COMMON = {"s": (float, 3.0, None)}  # DistributionSpec checks s, for heavy_tailed only

_TRIALS = {
    **_COMMON,
    "family": (str, "gaussian", None),
    "seeds": (int, 10, _at_least(1)),
    "seed_base": (int, 1000, _at_least(0)),
}

_SCHEMAS = {
    "learn": {
        **_TRIALS,
        "d": (int, 2, None),
        "opt_list": (_float_list, (0.005, 0.01, 0.02, 0.05), _opts_below(0.5, "1/2")),
        "epsilon": (float, 0.01, None),
        "delta": (float, 0.01, None),
        "t_cap": (int, 200_000, None),
        "grid": (_float_list, LearnerConfig().grid, None),
        "theta2": (float, math.pi / 8.0, None),
        "holdout_size": (int, 0, None),  # 0: learner.default_holdout_size
        "eval_size": (int, 200_000, None),
        "rho": (float, 0.25, None),
        "stride": (int, 400, None),
    },
    "compare": {
        **_TRIALS,
        "opt_list": (_float_list, (0.01, 0.001), _opts_below(0.25, "1/4")),  # predicted_floor's range
        "losses": (_str_list, ("logistic",), _NONEMPTY),
        "t_cap": (int, 200_000, None),
        "grid": (_float_list, (0.06, 0.03, 0.015), None),
        "holdout_k": (float, 2000.0, (math.isfinite, "must be finite")),
        "eval_size": (int, 200_000, None),
        "rho": (float, 1.0, None),
        "stride": (int, 250, None),
        "conv_n": (int, 1_000_000, _at_least(1)),
        "gtol": (float, 1e-6, (lambda v: 0.0 < v < math.inf, "must be finite and > 0")),
    },
    "lowerbound": {
        **_COMMON,
        "families": (_str_list, ("gaussian", "logconcave", "heavy_tailed"), _NONEMPTY),
        "losses": (_str_list, ORACLE_KINDS, (lambda v: bool(v) and set(v) <= set(ORACLE_KINDS),
                                             f"must be nonempty and name only {' or '.join(ORACLE_KINDS)}")),
        # opt = 1 puts the flip radius at 0
        "opt": (float, 0.01, (lambda v: 0.0 < v < 1.0, "(the tail mass) must lie in (0, 1)")),
        "grid_points": (int, 101, _at_least(1)),
        "tol": (float, 1e-9, None),
    },
}
_SCHEMAS["sweep"] = dict(_SCHEMAS["learn"])


def parse_config(path: str, command: str) -> dict:
    schema = _SCHEMAS[command]
    cfg = {k: default for k, (_, default, _) in schema.items()}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: config key {key!r} is set twice")
        seen.add(key)
        parser = schema[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for key {key!r}: {value!r} ({exc})") from exc
    for key, (_, _, check) in schema.items():
        if check and not check[0](cfg[key]):
            raise ConfigError(f"{key} {check[1]} (got {cfg[key]!r})")
    return cfg


def _make_spec(family: str, d: int, s: float):
    return dist.DistributionSpec(family, d, s if family == "heavy_tailed" else None)


def _check_rows(d: int, **sizes) -> None:
    """ValueError for a row count below 1 or past the largest (n, d) float64
    array numpy can index; a count below that may still not fit in memory."""
    limit = np.iinfo(np.intp).max // (8 * d)
    for key, n in sizes.items():
        if n < 1:
            raise ValueError(f"{key} must be >= 1")
        if n > limit:
            raise ValueError(f"{key} = {n} rows of dimension {d} exceed the largest array numpy can index")


def _learner_config(cfg, **kwargs) -> LearnerConfig:
    return LearnerConfig(grid=tuple(cfg["grid"]), t_cap=cfg["t_cap"], rho=cfg["rho"], eval_size=cfg["eval_size"],
                         candidate_stride=cfg["stride"], **kwargs)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, command: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        fh.write(f"# halfspace-sgd-{__version__} command={command} schema=1\n")


def _failure_row(width: int, message: str) -> list:
    row = ["FAILED", message.replace("\n", " ")[:200]]
    return row + [""] * (width - len(row))


# ---------------------------------------------------------------------------
# learn / sweep
# ---------------------------------------------------------------------------

_LEARN_HEADER = [
    "seed", "family", "d", "opt_target", "measured_noise_rate", "sigma_best",
    "err01", "angle_to_wstar", "T_used", "beta", "wall_ms",
]

_SWEEP_HEADER = [
    "seed", "family", "d", "opt_target", "sigma", "T", "beta",
    "best_holdout_err", "angle_best", "min_grad_norm", "reached_rho",
]


def _learn_groups(cfg) -> tuple:
    """(spec, LearnerConfig, groups) for learn/sweep: one (noise model, opt,
    holdout size) group per opt, the size resolved here, so a default that
    overflows is a config error."""
    spec = _make_spec(cfg["family"], cfg["d"], cfg["s"])
    w_star = unit_vector(spec.dim, 1)
    lc = _learner_config(cfg, epsilon=cfg["epsilon"], delta=cfg["delta"])
    holdout_size = cfg["holdout_size"] or default_holdout_size(spec.dim, lc.epsilon, lc.delta)
    _check_rows(spec.dim, holdout_size=holdout_size, eval_size=lc.eval_size)
    groups = [(far_flip(w_star, Z=dist.z_for_tail_mass(spec, opt), theta2=cfg["theta2"]), opt, holdout_size)
              for opt in cfg["opt_list"]]
    return spec, lc, groups


def _learn_run(spec, lc, groups, seeds, timing: bool, per_sigma_rows: bool, workers: int) -> list:
    """Every group in one learn_batch, its seed jobs over the workers; each
    group's entry becomes its rows, or stays the exception that failed it."""
    outcomes = learn_batch(spec, groups, lc, seeds, workers)
    return [out if isinstance(out, Exception) else _report_rows(out, timing, per_sigma_rows) for out in outcomes]


def _report_rows(reports, timing: bool, per_sigma_rows: bool) -> list[list]:
    rows = []
    for rep in reports:
        if per_sigma_rows:
            for diag in rep.per_sigma:
                rows.append([
                    rep.seed, rep.family, rep.d, rep.opt_target, diag.sigma, diag.T,
                    diag.beta, diag.best_holdout_err, diag.angle_best,
                    diag.min_grad_norm, diag.reached_rho,
                ])
        else:
            rows.append([
                rep.seed, rep.family, rep.d, rep.opt_target, rep.measured_noise_rate,
                rep.sigma_best, rep.err01, rep.angle_to_wstar, rep.T_used, rep.beta,
                rep.wall_ms if timing else 0.0,
            ])
    return rows


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

_HOLDOUT_CAP = 2_500_000  # compare's holdout is min(_HOLDOUT_CAP, ceil(holdout_k / opt))

_COMPARE_HEADER = [
    "family", "opt", "loss", "seed", "sigmoid_angle", "sigmoid_err01",
    "sigma_best", "convex_angle", "convex_grad_norm", "predicted_floor",
]


def _compare_groups(cfg) -> tuple:
    """(spec, LearnerConfig, groups, fits, floors) for compare: per opt, its
    (noise model, opt, holdout size) group, its convex fits as one call of
    `workers=` and its predicted floor."""
    spec = _make_spec(cfg["family"], 2, cfg["s"])
    losses = [convex_surrogate(kind) for kind in cfg["losses"]]
    w_star = unit_vector(2, 1)
    lc = _learner_config(cfg)
    groups, fits, floors = [], [], []
    for k, opt in enumerate(cfg["opt_list"]):
        Z = dist.z_for_tail_mass(spec, opt)
        model = far_flip(w_star, Z=Z, theta2=2.0 * admissible_theta(spec, Z))
        holdout_size = min(_HOLDOUT_CAP, int(math.ceil(cfg["holdout_k"] / opt)))
        _check_rows(spec.dim, holdout_size=holdout_size, eval_size=lc.eval_size, conv_n=cfg["conv_n"])
        groups.append((model, opt, holdout_size))
        conv_seed = derive_seed(cfg["seed_base"], 700, k)
        fits.append(partial(_convex_fits, spec, model, losses, cfg["conv_n"], conv_seed, cfg["gtol"]))
        floors.append(predicted_floor(spec, opt))
    return spec, lc, groups, fits, floors


def _convex_fits(spec, model, losses, conv_n, conv_seed, gtol, workers) -> list[tuple]:
    """(loss kind, angle to w*, gradient norm) of each full-batch minimizer on
    one conv_n-point dataset, which is freed on return; each pass of a fit
    runs its row blocks over `workers` threads."""
    conv_ds = make_dataset(spec, model, conv_n, conv_seed)
    fits = []
    for loss in losses:
        w_c, gnorm, _ = full_batch_minimize(loss, conv_ds.x, conv_ds.y, w0=model.w_star, gtol=gtol,
                                            workers=workers)
        fits.append((loss.kind, angle_between(w_c / np.linalg.norm(w_c), model.w_star), gnorm))
    return fits


def _call(job):
    return job()


def _compare_run(spec, lc, groups, fits, floors, seeds, workers: int) -> list:
    """Every opt group in one learn_batch over `workers` threads, beside one
    job that runs the groups' convex fits one group at a time: on a thread
    of its own, the core the batch's GIL-bound lockstep leaves idle, with
    workers >= 2, and before the batch with one. Each fit's row-block passes
    run over `workers` threads of their own. A group whose fits or batch
    entry is an exception gets that exception, so a FAILED row."""
    fits = [partial(fit, workers=workers) for fit in fits]
    jobs = [partial(map_jobs, _call, fits), partial(learn_batch, spec, groups, lc, seeds, workers)]
    convex, batch = ([out] * len(groups) if isinstance(out, Exception) else out
                     for out in map_jobs(_call, jobs, workers))
    outcomes = []
    for (_, opt, _), floor, fit, reports in zip(groups, floors, convex, batch):
        failure = next((out for out in (fit, reports) if isinstance(out, Exception)), None)
        outcomes.append(failure or [
            [spec.family, opt, kind, rep.seed, rep.angle_to_wstar, rep.err01, rep.sigma_best,
             c_angle, c_gnorm, floor] for kind, c_angle, c_gnorm in fit for rep in reports])
    return outcomes


# ---------------------------------------------------------------------------
# lowerbound
# ---------------------------------------------------------------------------

_LOWERBOUND_HEADER = [
    "loss", "family", "opt", "Z", "admissible_theta", "theta", "grid_points",
    "min_grad_norm", "argmin_angle", "quad_error", "certified",
]


def _lowerbound_groups(cfg) -> list[tuple]:
    quad = QuadratureSpec(tol=cfg["tol"])
    groups = []
    for kind in cfg["losses"]:
        loss = convex_surrogate(kind)
        for family in cfg["families"]:
            spec = _make_spec(family, 2, cfg["s"])
            Z = dist.z_for_tail_mass(spec, cfg["opt"])
            groups.append((loss, spec, cfg["opt"], Z, admissible_theta(spec, Z), cfg["grid_points"], quad))
    return groups


def _lowerbound_group(args) -> list[list]:
    loss, spec, opt, Z, theta, grid_points, quad = args
    rep = scan_cone(loss, spec, Z, theta, grid_points, quad)
    certified = rep.min_grad_norm > 10.0 * rep.max_quad_error
    return [[
        rep.loss, rep.family, opt, rep.Z, theta, rep.theta, rep.grid_points,
        rep.min_grad_norm, rep.argmin_angle, rep.max_quad_error, certified,
    ]]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _collect(outcomes, header_width: int):
    """(rows, any_failure) from per-group row lists; a group's exception
    becomes one FAILED marker row instead of aborting the harness."""
    rows: list[list] = []
    failed = False
    for out in outcomes:
        if isinstance(out, Exception):
            print(f"halfspace-bench: group failed: {type(out).__name__}: {out}", file=sys.stderr)
            rows.append(_failure_row(header_width, f"{type(out).__name__}: {out}"))
            failed = True
        else:
            rows.extend(out)
    return rows, failed


def _build_groups(command: str, cfg: dict, timing: bool):
    """(CSV header, run) for a command, with run(workers) -> one outcome per
    group for _collect: its rows, or the exception that failed it (see
    learner.map_jobs). learn, sweep and lowerbound run one level of
    threads, at most `workers` of them; compare, one learn_batch as learn
    does, adds one thread for its convex fits, whose row-block passes run on
    up to `workers` threads of their own (_compare_run). Every spec,
    noise model, LearnerConfig, holdout size and scan input is built here,
    so a value that passes its _SCHEMAS check but not a constructor's
    raises ValueError before any group runs."""
    if command == "lowerbound":
        return _LOWERBOUND_HEADER, partial(map_jobs, _lowerbound_group, _lowerbound_groups(cfg))
    seeds = [cfg["seed_base"] + j for j in range(cfg["seeds"])]
    if command == "compare":
        return _COMPARE_HEADER, partial(_compare_run, *_compare_groups(cfg), seeds)
    header = _SWEEP_HEADER if command == "sweep" else _LEARN_HEADER
    return header, partial(_learn_run, *_learn_groups(cfg), seeds, timing, command == "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="halfspace-bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("learn", "sweep", "compare", "lowerbound"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)))
        p.add_argument("--timing", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.command)
        if not args.out:
            raise ConfigError("no output path: pass --out")
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        try:
            header, run = _build_groups(args.command, cfg, args.timing)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        print(f"halfspace-bench: config error: {exc}", file=sys.stderr)
        return 2

    rows, failed = _collect(run(args.workers), len(header))

    if args.command == "lowerbound":
        failed = failed or any(not bool(row[-1]) or row[0] == "FAILED" for row in rows)

    try:
        _write_csv(args.out, args.command, header, rows)
    except OSError as exc:
        print(f"halfspace-bench: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"[halfspace-bench] {args.command}: wrote {len(rows)} rows to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
