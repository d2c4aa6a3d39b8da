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
comments). All randomness flows from the declared seeds, so a rerun with the
same config produces a byte-identical CSV; wall-clock timing is only written
when --timing is passed. Exit codes: 0 success, 1 numeric failure (partial
CSV keeps a FAILED marker row), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import __version__
from . import distributions as dist
from .baselines import full_batch_minimize
from .geometry import angle_between, unit_vector
from .learner import LearnerConfig, derive_seed, learn_batch
from .losses import convex_surrogate
from .noise import far_flip, make_dataset
from .oracle import UNSUPPORTED_PAIRS, QuadratureSpec, admissible_theta, predicted_floor, scan_cone

__all__ = ["main"]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _float_list(v: str) -> tuple[float, ...]:
    items = tuple(float(p) for p in v.split(",") if p.strip())
    return items


def _str_list(v: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in v.split(",") if p.strip())


_COMMON = {
    "s": (float, 3.0),
    "out": (str, None),
}

_TRIALS = {
    **_COMMON,
    "family": (str, "gaussian"),
    "seeds": (int, 10),
    "seed_base": (int, 1000),
}

_SCHEMAS = {
    "learn": {
        **_TRIALS,
        "d": (int, 2),
        "opt_list": (_float_list, (0.005, 0.01, 0.02, 0.05)),
        "epsilon": (float, 0.01),
        "delta": (float, 0.01),
        "t_cap": (int, 200_000),
        "grid": (_float_list, LearnerConfig().grid),
        "theta2": (float, math.pi / 8.0),
        "holdout_size": (int, 0),  # 0: learner.default_holdout_size
        "eval_size": (int, 200_000),
        "rho": (float, 0.25),
        "stride": (int, 400),
    },
    "compare": {
        **_TRIALS,
        "opt_list": (_float_list, (0.01, 0.001)),
        "losses": (_str_list, ("logistic",)),
        "t_cap": (int, 200_000),
        "grid": (_float_list, (0.06, 0.03, 0.015)),
        "holdout_k": (float, 2000.0),
        "holdout_cap": (int, 2_500_000),
        "eval_size": (int, 200_000),
        "rho": (float, 1.0),
        "stride": (int, 250),
        "conv_n": (int, 1_000_000),
        "gtol": (float, 1e-6),
    },
    "lowerbound": {
        **_COMMON,
        "families": (_str_list, ("gaussian", "logconcave", "heavy_tailed")),
        "losses": (_str_list, ("logistic", "hinge")),
        "opt": (float, 0.01),
        "grid_points": (int, 101),
        "tol": (float, 1e-9),
    },
}
_SCHEMAS["sweep"] = dict(_SCHEMAS["learn"])


def parse_config(path: str, command: str) -> dict:
    schema = _SCHEMAS[command]
    cfg = {k: default for k, (_, default) in schema.items()}
    try:
        text = open(path).read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
        parser = schema[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for key {key!r}: {value!r} ({exc})") from exc
    return cfg


def _make_spec(family: str, d: int, s: float):
    return dist.DistributionSpec(family, d, s if family == "heavy_tailed" else None)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
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


def _learn_groups(cfg, seeds, timing: bool, per_sigma_rows: bool) -> list[tuple]:
    spec = _make_spec(cfg["family"], cfg["d"], cfg["s"])
    w_star = unit_vector(spec.dim, 1)
    lc = LearnerConfig(
        epsilon=cfg["epsilon"],
        delta=cfg["delta"],
        grid=tuple(cfg["grid"]),
        t_cap=cfg["t_cap"],
        rho=cfg["rho"],
        holdout_size=cfg["holdout_size"] or None,
        eval_size=cfg["eval_size"],
        candidate_stride=cfg["stride"],
    )
    return [
        (spec, far_flip(w_star, Z=dist.z_for_tail_mass(spec, opt), theta2=cfg["theta2"]), lc, opt,
         seeds, timing, per_sigma_rows)
        for opt in cfg["opt_list"]
    ]


def _learn_group(args) -> list[list]:
    spec, model, lc, opt, seeds, timing, per_sigma_rows = args
    rows = []
    for rep in learn_batch(spec, model, lc, seeds, opt_target=opt):
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

_COMPARE_HEADER = [
    "family", "opt", "loss", "seed", "sigmoid_angle", "sigmoid_err01",
    "sigma_best", "convex_angle", "convex_grad_norm", "predicted_floor",
]


def _compare_groups(cfg, seeds) -> list[tuple]:
    spec = _make_spec(cfg["family"], 2, cfg["s"])
    losses = [convex_surrogate(kind) for kind in cfg["losses"]]
    w_star = unit_vector(2, 1)
    groups = []
    for k, opt in enumerate(cfg["opt_list"]):
        Z = dist.z_for_tail_mass(spec, opt)
        model = far_flip(w_star, Z=Z, theta2=2.0 * admissible_theta(spec, Z))
        lc = LearnerConfig(
            grid=tuple(cfg["grid"]),
            t_cap=cfg["t_cap"],
            rho=cfg["rho"],
            holdout_size=min(cfg["holdout_cap"], int(math.ceil(cfg["holdout_k"] / opt))),
            eval_size=cfg["eval_size"],
            candidate_stride=cfg["stride"],
        )
        conv_seed = derive_seed(cfg["seed_base"], 700, k)
        groups.append((spec, model, lc, losses, opt, predicted_floor(spec, opt), seeds,
                       cfg["conv_n"], conv_seed, cfg["gtol"]))
    return groups


def _compare_group(args) -> list[list]:
    spec, model, lc, losses, opt, floor, seeds, conv_n, conv_seed, gtol = args
    w_star = model.w_star
    conv_ds = make_dataset(spec, model, conv_n, conv_seed)
    convex = []
    for loss in losses:
        w_c, gnorm, _ = full_batch_minimize(loss, conv_ds.x, conv_ds.y, w0=w_star, gtol=gtol)
        convex.append((loss.kind, angle_between(w_c / np.linalg.norm(w_c), w_star), gnorm))

    reports = learn_batch(spec, model, lc, seeds, opt_target=opt)
    rows = []
    for kind, c_angle, c_gnorm in convex:
        for rep in reports:
            rows.append([
                spec.family, opt, kind, rep.seed, rep.angle_to_wstar, rep.err01,
                rep.sigma_best, c_angle, c_gnorm, floor,
            ])
    return rows


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
            if (kind, family) in UNSUPPORTED_PAIRS:
                raise ValueError(f"the {kind} oracle is not implemented for the {family} family")
            spec = _make_spec(family, 2, cfg["s"])
            Z = dist.z_for_tail_mass(spec, cfg["opt"])
            groups.append((loss, spec, cfg["opt"], Z, admissible_theta(spec, Z), cfg["grid_points"], quad))
    return groups


def _lowerbound_group(args) -> list[list]:
    loss, spec, opt, Z, theta, grid_points, quad = args
    rep = scan_cone(loss, spec, Z, theta, grid_points, quad)
    certified = rep.min_grad_norm > 10.0 * rep.max_quad_error
    return [[
        loss.kind, spec.family, opt, rep.Z, theta, rep.theta, rep.grid_points,
        rep.min_grad_norm, rep.argmin_angle, rep.max_quad_error, certified,
    ]]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _run_groups(groups, worker, workers: int, header_width: int):
    """Run work groups, keeping config order; at most min(workers, groups,
    cpu count) processes, and none beyond this one when that is 1.

    A group that raises contributes one FAILED marker row instead of
    aborting the harness; returns (rows, any_failure).
    """
    rows: list[list] = []
    failed = False
    n = min(workers, len(groups), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=n) if n > 1 else contextlib.nullcontext() as pool:
        calls = [pool.submit(worker, g).result if pool else partial(worker, g) for g in groups]
        for call in calls:
            try:
                rows.extend(call())
            except Exception as exc:
                print(f"halfspace-bench: group failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                rows.append(_failure_row(header_width, f"{type(exc).__name__}: {exc}"))
                failed = True
    return rows, failed


def _build_groups(command: str, cfg: dict, timing: bool):
    """(CSV header, worker, groups) for a command; every spec, noise model,
    LearnerConfig and scan input is built here, so a bad value raises
    ValueError before any group runs."""
    if command == "lowerbound":
        if not cfg["families"] or not cfg["losses"]:
            raise ValueError("families and losses must be nonempty")
        return _LOWERBOUND_HEADER, _lowerbound_group, _lowerbound_groups(cfg)
    if not cfg["opt_list"]:
        raise ValueError("opt_list must be nonempty")
    if any(not 0.0 < o < 0.5 for o in cfg["opt_list"]):
        raise ValueError("opt_list values must lie in (0, 1/2)")
    seeds = [cfg["seed_base"] + j for j in range(cfg["seeds"])]
    if command == "compare":
        return _COMPARE_HEADER, _compare_group, _compare_groups(cfg, seeds)
    header = _SWEEP_HEADER if command == "sweep" else _LEARN_HEADER
    return header, _learn_group, _learn_groups(cfg, seeds, timing, command == "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="halfspace-bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("learn", "sweep", "compare", "lowerbound"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--timing", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.command)
        out_path = args.out or cfg.get("out")
        if not out_path:
            raise ConfigError("no output path: pass --out or set 'out' in the config")
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        for key in ("seeds", "conv_n", "grid_points"):
            if key in cfg and cfg[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        try:
            header, worker, groups = _build_groups(args.command, cfg, args.timing)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        print(f"halfspace-bench: config error: {exc}", file=sys.stderr)
        return 2

    rows, failed = _run_groups(groups, worker, args.workers, len(header))

    if args.command == "lowerbound":
        failed = failed or any(not bool(row[-1]) or row[0] == "FAILED" for row in rows)

    try:
        _write_csv(out_path, args.command, header, rows)
    except OSError as exc:
        print(f"halfspace-bench: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    print(f"[halfspace-bench] {args.command}: wrote {len(rows)} rows to {out_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
