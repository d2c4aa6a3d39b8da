"""Benchmark of the halfspace-bench CLI: three workloads, end-to-end time and
memory per fresh process, and per-layer self time from a separate traced
process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere inside a source checkout; the program is imported from
its src/ directory, so nothing needs installing. A run writes the workload's
config (generated from --seed) under bench/out/, then, for S seconds, starts
one fresh process per round that runs the same halfspace-bench command on it.
Before each round, set-up is also measured in SETUP_SPAWNS_PER_ROUND
processes that only import the CLI, so that set-up samples span the run.
With --trace 1 the last round runs with the spans of bench/spans.py
installed and the run reports per-layer metrics instead of end-to-end ones.
Outputs are checked by bench/checks.py after the timed part. The last line
printed is one JSON object with the keys correct, attempted, failed and
metrics. `--workload all` runs every workload untraced and traced.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
BLAS_THREADS = 1          # one BLAS thread per process: steadier than nproc = 2
SETUP_SPAWNS_PER_ROUND = 3
CHILD_TIMEOUT_S = 120


class Workload:
    def __init__(self, command, config, ops, check):
        self.command = command
        self.config = config    # seed -> config text
        self.ops = ops          # operations per round: trials, rows or cells
        self.check = check      # (csv text, seed) -> list of failures


def _seed_base(seed):
    return 1000 * seed


# learn: Gaussian d = 10, two opt groups of two seeds, default 5-width grid.
LEARN = dict(opts=(0.01, 0.05), seeds=2, t_cap=20_000, theta2=math.pi / 8.0, eval_size=200_000)

# compare: heavy tails s = 3 at opt = 1e-3, Newton on conv_n points.
COMPARE = dict(s=3.0, opts=(0.001,), losses=("logistic",), seeds=1, t_cap=20_000,
               holdout_k=500, conv_n=1_000_000, gtol=1e-6)

# lowerbound: every (loss, family) cell, 101 gradients each, at tol 1e-9.
LOWERBOUND = dict(losses=("logistic", "hinge"), families=("gaussian", "logconcave", "heavy_tailed"),
                  s=3.0, opt=0.01, grid_points=101, tol=1e-9)


def _learn_config(seed):
    p = LEARN
    return (f"family = gaussian\nd = 10\nopt_list = {', '.join(map(repr, p['opts']))}\n"
            f"seeds = {p['seeds']}\nseed_base = {_seed_base(seed)}\nt_cap = {p['t_cap']}\n"
            f"theta2 = {p['theta2']!r}\neval_size = {p['eval_size']}\n")


def _learn_check(text, seed):
    p = dict(LEARN, seeds=[_seed_base(seed) + j for j in range(LEARN["seeds"])])
    return checks.check_learn(text, p)


def _compare_config(seed):
    p = COMPARE
    return (f"family = heavy_tailed\ns = {p['s']!r}\nopt_list = {', '.join(map(repr, p['opts']))}\n"
            f"losses = {', '.join(p['losses'])}\nseeds = {p['seeds']}\nseed_base = {_seed_base(seed)}\n"
            f"t_cap = {p['t_cap']}\ngrid = 0.06, 0.03, 0.015\nholdout_k = {p['holdout_k']}\n"
            f"conv_n = {p['conv_n']}\ngtol = {p['gtol']!r}\n")


def _compare_check(text, seed):
    p = dict(COMPARE, seeds=[_seed_base(seed) + j for j in range(COMPARE["seeds"])])
    return checks.check_compare(text, p)


def _lowerbound_config(seed):
    # The oracle is deterministic: the seed only drives the Monte Carlo check.
    p = LOWERBOUND
    return (f"families = {', '.join(p['families'])}\nlosses = {', '.join(p['losses'])}\n"
            f"s = {p['s']!r}\nopt = {p['opt']!r}\ngrid_points = {p['grid_points']}\ntol = {p['tol']!r}\n")


def _lowerbound_check(text, seed):
    return checks.check_lowerbound(text, LOWERBOUND, seed)


WORKLOADS = {
    "learn-gauss-d10": Workload(
        "learn", _learn_config, len(LEARN["opts"]) * LEARN["seeds"], _learn_check),
    "compare-heavy-s3": Workload(
        "compare", _compare_config,
        len(COMPARE["opts"]) * len(COMPARE["losses"]) * COMPARE["seeds"], _compare_check),
    "lowerbound-all": Workload(
        "lowerbound", _lowerbound_config,
        len(LOWERBOUND["losses"]) * len(LOWERBOUND["families"]), _lowerbound_check),
}


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn(out_json, cli_args=(), trace=False):
    """One fresh process of bench/child.py; returns its JSON report."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(SRC), repr(spawned_at), str(out_json),
         "1" if trace else "0", *map(str, cli_args)],
        env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not out_json.exists():
        raise RuntimeError(f"benchmark process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(out_json.read_text())
    if not Path(report["cli_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported {report['cli_file']}, not the checkout's {SRC}")
    if report.get("rc") == 2:
        raise RuntimeError(f"halfspace-bench rejected the benchmark's config: {proc.stderr.strip()}")
    return report


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _same_as_earlier_runs(name, seed, text):
    """CSV digests of earlier runs of the same source and seed must match."""
    store = OUT / name / "digests.json"
    digests = json.loads(store.read_text()) if store.exists() else {}
    key = f"{_source_digest()}:{seed}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digests.setdefault(key, digest) != digest:
        return [f"identical: CSV differs from an earlier run of the same source and seed {seed}"]
    store.write_text(json.dumps(digests, indent=1))
    return []


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    run_dir = OUT / name / f"seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.txt"
    config.write_text(wl.config(seed))

    _spawn(run_dir / "warmup.json")  # writes bytecode caches; not measured
    start = time.monotonic()
    setups, rounds, csvs, longest = [], [], [], 0.0
    while True:
        t0 = time.monotonic()
        for _ in range(SETUP_SPAWNS_PER_ROUND):
            setups.append(_spawn(run_dir / f"setup{len(setups)}.json")["setup_s"])
        csv_path = run_dir / f"round{len(rounds)}.csv"
        rounds.append(_spawn(run_dir / f"round{len(rounds)}.json",
                             [wl.command, "--config", config, "--out", csv_path]))
        csvs.append(csv_path)
        longest = max(longest, time.monotonic() - t0)
        # leave room for the traced round, which runs after the untraced ones
        if time.monotonic() - start + longest * (2 if trace else 1) > seconds:
            break
    traced = None
    if trace:
        csv_path = run_dir / "traced.csv"
        traced = _spawn(run_dir / "traced.json", [wl.command, "--config", config, "--out", csv_path], trace=True)
        csvs.append(csv_path)

    texts = [p.read_text() if p.exists() else "" for p in csvs]
    attempted = wl.ops * len(texts)
    failed = sum(wl.ops - min(wl.ops, len(checks.good_rows(checks.read_rows(t)))) for t in texts)
    failures = checks.check_identical(texts) + wl.check(texts[0], seed)
    failures += _same_as_earlier_runs(name, seed, texts[0])

    walls = [r["wall_s"] for r in rounds]
    print(f"{name} seed={seed} rounds={len(rounds)} blas_threads={BLAS_THREADS} "
          f"wall_s={[round(w, 3) for w in walls]}")
    for f in failures:
        print(f"CHECK FAILED {name}: {f}")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - statistics.median(walls), "unit": "s"}
        if traced["trace_missing"]:
            print(f"trace: not traced or not counted: {', '.join(traced['trace_missing'])}")
        for path, calls, total, own in traced["spans"][:25]:
            print(f"span {total:9.4f} s total {own:9.4f} s self {calls:8d} calls  {path}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in rounds]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    for m in metrics.values():
        if m["unit"] == "count":
            m["value"] = int(m["value"])
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "halfspace_sgd" / "cli.py").is_file():
        print(f"bench: no halfspace_sgd sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            print(f"{name} trace={trace} " + json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
