import csv
import os
import re
import subprocess
import sys
import threading
import warnings
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import pytest

from halfspace_sgd import baselines, cli, learner
from halfspace_sgd.cli import main, parse_config
from halfspace_sgd.distributions import block_rows


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


TINY_LEARN = """
family = gaussian
d = 3
opt_list = 0.02
seeds = 2
seed_base = 50
t_cap = 2000
grid = 0.2, 0.1
holdout_size = 5000
eval_size = 5000
stride = 100
"""

TINY_COMPARE = """
family = gaussian
opt_list = 0.02
seeds = 2
seed_base = 60
t_cap = 3000
grid = 0.1, 0.05
holdout_k = 50
eval_size = 5000
conv_n = 20000
stride = 100
"""

TINY_LOWERBOUND = """
families = gaussian
losses = logistic
opt = 0.01
grid_points = 3
"""


def _with(text: str, *lines: str) -> str:
    """The config text with each 'key = value' line in place of that key's
    own line, or appended when the key is not set."""
    keys = {line.split("=", 1)[0].strip() for line in lines}
    kept = [line for line in text.splitlines() if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept + list(lines)) + "\n"


def _rows(path: Path):
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("# halfspace-sgd-")
    return list(csv.reader(lines[:-1]))


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "c.txt", "bogus_knob = 3\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_missing_out_exits_2(tmp_path):
    cfg = _write(tmp_path / "c.txt", "opt_list = 0.01\n")
    assert main(["learn", "--config", cfg]) == 2


def test_empty_opt_list_exits_2(tmp_path):
    cfg = _write(tmp_path / "c.txt", "opt_list =\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


def test_out_of_range_opt_exits_2(tmp_path):
    cfg = _write(tmp_path / "c.txt", "opt_list = 0.7\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


def test_learn_workers_match_serial(tmp_path):
    # with two or more CPUs the default runs the two seeds' report jobs, each
    # scoring both opt groups, on threads
    cfg = _write(tmp_path / "c.txt", TINY_LEARN.replace("opt_list = 0.02", "opt_list = 0.02, 0.05"))
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["learn", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["learn", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["learn", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.csv")]) == 2


def test_malformed_line_exits_2(tmp_path):
    cfg = _write(tmp_path / "c.txt", "just some words\n")
    assert main(["learn", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("command, text, flags, needle", [
    ("lowerbound", TINY_LOWERBOUND, ["--workers", "-3"], "--workers"),
    ("learn", TINY_LEARN.replace("family = gaussian", "family = logconcave").replace("d = 3", "d = 10"),
     [], "d = 2"),
    ("lowerbound", TINY_LOWERBOUND.replace("families = gaussian", "families = foo"), [], "foo"),
    ("lowerbound", TINY_LOWERBOUND.replace("losses = logistic", "losses = nope"), [], "nope"),
    ("compare", TINY_COMPARE.replace("family = gaussian", "family = heavy_tailed\ns = 2.0"), [], "s > 2"),
    ("lowerbound", TINY_LOWERBOUND.replace("families = gaussian", "families = heavy_tailed\ns = 5.0")
     .replace("losses = logistic", "losses = squared_hinge"), [], "squared_hinge"),
    ("learn", TINY_LEARN.replace("d = 3", "d = 1"), [], "dimension must be >= 2"),
    ("learn", _with(TINY_LEARN, "stride = 0"), [], "stride must be >= 1"),
    ("learn", _with(TINY_LEARN, "t_cap = 0"), [], "t_cap must be >= 1"),
    ("learn", _with(TINY_LEARN, "eval_size = 0"), [], "eval_size must be >= 1"),
    ("learn", _with(TINY_LEARN, "holdout_size = -5"), [], "holdout_size must be >= 1"),
    ("learn", _with(TINY_LEARN, "grid = -0.1"), [], "sigma grid"),
    ("learn", _with(TINY_LEARN, "theta2 = 1.0"), [], "theta2"),
    ("learn", _with(TINY_LEARN, "epsilon = 2"), [], "epsilon"),
    ("learn", _with(TINY_LEARN, "rho = -1"), [], "rho must be positive"),
    ("learn", _with(TINY_LEARN, "rho = 0"), [], "rho must be positive"),
    ("compare", _with(TINY_COMPARE, "conv_n = 0"), [], "conv_n must be >= 1"),
    ("compare", _with(TINY_COMPARE, "holdout_k = 0"), [], "holdout_size must be >= 1"),
    ("lowerbound", _with(TINY_LOWERBOUND, "grid_points = 0"), [], "grid_points must be >= 1"),
    ("lowerbound", _with(TINY_LOWERBOUND, "opt = 0"), [], "tail mass"),
    ("lowerbound", _with(TINY_LOWERBOUND, "tol = 0"), [], "tol must be finite and > 0"),
    ("lowerbound", _with(TINY_LOWERBOUND, "tol = nan"), [], "tol must be finite and > 0"),
    ("compare", _with(TINY_COMPARE, "gtol = -1"), [], "gtol must be finite and > 0"),
    ("compare", _with(TINY_COMPARE, "gtol = nan"), [], "gtol must be finite and > 0"),
    ("learn", _with(TINY_LEARN, "rho = inf"), [], "rho must be positive and finite"),
    ("learn", _with(TINY_LEARN, "grid = inf, 0.1"), [], "sigma grid must be nonempty, positive and finite"),
    ("lowerbound", _with(TINY_LOWERBOUND, "opt = 1"), [], "opt (the tail mass) must lie in (0, 1)"),
    ("learn", _with(TINY_LEARN, "holdout_size = 0", "epsilon = 1e-200"), [], "overflow the default holdout size"),
    ("learn", _with(TINY_LEARN, "seed_base = -5"), [], "seed_base must be >= 0"),
    ("compare", _with(TINY_COMPARE, "losses ="), [], "losses must be nonempty"),
    ("compare", _with(TINY_COMPARE, "holdout_k = inf"), [], "holdout_k must be finite"),
    ("learn", _with(TINY_LEARN, "holdout_size = 0", "epsilon = 1e-100"), [], "the largest array numpy can index"),
    ("learn", _with(TINY_LEARN, "holdout_size = 1000000000000000000"), [], "holdout_size = 1000000000000000000"),
    ("lowerbound", TINY_LOWERBOUND.replace("losses = logistic", "losses = squared_hinge"), [], "squared_hinge"),
    ("lowerbound", TINY_LOWERBOUND + "grid_points = 5\n", [], "'grid_points' is set twice"),
    ("learn", _with(TINY_LEARN, "seeds = 0"), [], "seeds must be >= 1"),
    ("lowerbound", _with(TINY_LOWERBOUND, "families ="), [], "families must be nonempty"),
    ("compare", _with(TINY_COMPARE, "opt_list = 0.3"), [], "opt_list"),
    ("compare", _with(TINY_COMPARE, "family = heavy_tailed", "s = inf"), [], "s = inf"),
    ("lowerbound", _with(TINY_LOWERBOUND, "families = heavy_tailed", "s = 1e300"), [], "s = 1e+300"),
], ids=["negative-workers", "logconcave-d10", "unknown-family", "unknown-loss", "s-at-2",
        "squared-hinge-heavy", "d-1", "stride-0", "t_cap-0", "eval_size-0", "holdout_size-neg",
        "grid-neg", "theta2-1", "epsilon-2", "rho-neg", "rho-0", "conv_n-0", "holdout_k-0",
        "grid_points-0", "opt-0", "tol-0", "tol-nan", "gtol-neg", "gtol-nan", "rho-inf", "grid-inf",
        "opt-1", "epsilon-tiny-default-holdout", "seed_base-neg", "compare-no-losses", "holdout_k-inf",
        "epsilon-1e-100-default-holdout", "holdout_size-1e18", "squared-hinge-gaussian", "repeated-key",
        "seeds-0", "lowerbound-no-families", "compare-opt-0.3", "s-inf", "s-1e300"])
def test_bad_input_exits_2_before_any_work(tmp_path, capsys, command, text, flags, needle):
    out = tmp_path / "o.csv"
    cfg = _write(tmp_path / "c.txt", text)
    assert main([command, "--config", cfg, "--out", str(out)] + flags) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def fake_pool(monkeypatch):
    """learner.map_jobs on a FakePool, with three usable CPUs. The record
    holds each pool's max_workers (started) and each submission's name
    (submitted): the mapped function's, or for a job that is itself a call
    (a partial), the function it calls. FakePool runs every submission at
    once, in this thread, so a pool started inside a job is recorded after
    its caller's."""
    record = SimpleNamespace(started=[], submitted=[])

    class FakePool:
        def __init__(self, max_workers):
            record.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            record.submitted.append(getattr(arg if callable(arg) else fn, "func", fn).__name__)
            fut = Future()
            try:
                fut.set_result(fn(arg))
            except Exception as exc:
                fut.set_exception(exc)
            return fut

    monkeypatch.setattr(learner, "ThreadPoolExecutor", FakePool)
    monkeypatch.setattr(learner.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    return record


def test_run_groups_caps_workers_and_marks_failures(tmp_path, monkeypatch, fake_pool):
    started = fake_pool.started

    def worker(g):
        if g == 1:
            raise RuntimeError("boom")
        return [[g, "ok"]]

    # (workers, groups) -> pool sizes started: min(workers, groups, usable CPUs), none when 1
    for workers, n_groups, pools in [(8, 2, [2]), (8, 5, [3]), (2, 5, [2]), (1, 5, []), (8, 1, [])]:
        started.clear()
        rows, failed = cli._collect(learner.map_jobs(worker, list(range(n_groups)), workers), 2)
        assert started == pools
        assert failed == (n_groups > 1)
        assert [r[0] for r in rows] == [0, "FAILED", 2, 3, 4][:n_groups]
        if n_groups > 1:
            assert rows[1] == ["FAILED", "RuntimeError: boom"]

    # --workers defaults to the usable CPUs: six lowerbound cells get a pool of three
    monkeypatch.setattr(cli, "_lowerbound_group", lambda args: [[args[0].kind, args[1].family] + [1] * 9])
    cfg = _write(tmp_path / "c.txt", "families = gaussian, logconcave, heavy_tailed\nlosses = logistic, hinge\n")
    for flags, pools in [([], [3]), (["--workers", "1"], []), (["--workers", "2"], [2])]:
        started.clear()
        assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o.csv")] + flags) == 0
        assert started == pools
        assert len(_rows(tmp_path / "o.csv")) == 1 + 6


def test_compare_workers_match_serial(tmp_path, monkeypatch):
    # with two or more CPUs the default runs the one opt's two seed jobs on
    # threads; two opts of different holdout sizes (2,500 and 1,000 rows)
    # share one batch, and their fits' passes split 70,000 rows into two
    # blocks: the same bytes at every worker count
    cfg = _write(tmp_path / "c.txt", TINY_COMPARE)
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["compare", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setattr(learner.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = _write(tmp_path / "c2.txt", _with(TINY_COMPARE, "opt_list = 0.02, 0.05", "seeds = 3", "conv_n = 70000"))
    outs = [tmp_path / f"two-opts-w{w}.csv" for w in (1, 2, 3)]
    for workers, out in zip((1, 2, 3), outs):
        assert main(["compare", "--config", cfg, "--out", str(out), "--workers", str(workers)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert len(_rows(outs[0])) == 1 + 2 * 3


def test_compare_one_seed_fit_beside_its_batch_matches_serial(tmp_path, monkeypatch):
    # one opt, one seed: at --workers 2 the convex fit runs on its own thread
    # beside the batch, at --workers 1 before it; the CSVs are the same bytes
    monkeypatch.setattr(learner.os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = _write(tmp_path / "c.txt", _with(TINY_COMPARE, "seeds = 1"))
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["compare", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("failing, opts", [("full_batch_minimize", "0.02"), ("learn_batch", "0.02"),
                                           ("full_batch_minimize", "0.02, 0.05")],
                         ids=["full_batch_minimize", "learn_batch", "first-of-two-fits"])
def test_compare_fit_or_batch_failure_fails_its_group(tmp_path, monkeypatch, failing, opts):
    # the fits and the batch run on two threads; whichever raises, the other
    # runs to its end, the failed group gets its FAILED row and the run exits
    # 1. With two opts, the first opt's fit failing leaves the second opt's
    # fit to run and its rows to stand
    monkeypatch.setattr(learner.os, "sched_getaffinity", lambda pid: {0, 1})
    other = "learn_batch" if failing == "full_batch_minimize" else "full_batch_minimize"
    finished, calls = [], []

    def fails(*args, fn=getattr(cli, failing), **kwargs):
        calls.append(failing)
        if len(calls) == 1:
            raise RuntimeError(f"{failing} boom")
        return fn(*args, **kwargs)

    def runs(*args, fn=getattr(cli, other), **kwargs):
        out = fn(*args, **kwargs)
        finished.append(other)
        return out

    monkeypatch.setattr(cli, failing, fails)
    monkeypatch.setattr(cli, other, runs)
    cfg = _write(tmp_path / "c.txt", _with(TINY_COMPARE, "seeds = 1", f"opt_list = {opts}"))
    out = tmp_path / "o.csv"
    assert main(["compare", "--config", cfg, "--out", str(out), "--workers", "2"]) == 1
    rows = _rows(out)[1:]
    assert rows[0] == ["FAILED", f"RuntimeError: {failing} boom"] + [""] * 8
    assert [row[:4] for row in rows[1:]] == [["gaussian", "0.05", "logistic", "60"]] * (len(opts.split(",")) - 1)
    assert len(calls) == len(rows)
    assert finished == [other]


@pytest.mark.parametrize("lines, workers, pools, jobs", [
    # one job that fits every opt in turn (map_jobs over the fits, serial) beside one
    # learn_batch of every opt, on two threads; the batch's seed jobs on every worker
    (["seeds = 3"], "3", [2, 3], ["map_jobs", "learn_batch"] + ["_seed_reports"] * 3),
    (["opt_list = 0.02, 0.05", "seeds = 3"], "2", [2, 2], ["map_jobs", "learn_batch"] + ["_seed_reports"] * 3),
], ids=["one-opt-3-seeds", "two-opts"])
def test_compare_runs_one_level_of_threads(tmp_path, fake_pool, lines, workers, pools, jobs):
    cfg = _write(tmp_path / "c.txt", _with(TINY_COMPARE, *lines))
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--workers", workers]) == 0
    assert fake_pool.started == pools
    assert fake_pool.submitted == jobs


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_compare_fit_passes_run_on_the_workers(tmp_path, fake_pool, workers):
    # conv_n = 2 blocks + 1 row: each pass of the Newton fit maps its three
    # row blocks over a pool of --workers threads of its own, after the fits'
    # job has started and before the batch's seed jobs; at --workers 1 no
    # pool starts at all
    rows = 2 * block_rows(2) + 1
    cfg = _write(tmp_path / "c.txt", _with(TINY_COMPARE, f"conv_n = {rows}", "seeds = 3"))
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--workers", str(workers)]) == 0
    if workers == 1:
        assert fake_pool.started == fake_pool.submitted == []
        return
    passes = fake_pool.submitted.count("block") // 3
    assert passes >= 2
    assert fake_pool.started == [2] + [workers] * (passes + 1)
    assert fake_pool.submitted == ["map_jobs"] + ["block"] * 3 * passes + ["learn_batch"] + ["_seed_reports"] * 3


def test_compare_block_pass_failure_fails_its_group(tmp_path, monkeypatch):
    # a block that raises on a pass thread, not the fit's own, fails its pass,
    # so its opt's fit: that opt gets its FAILED row, the other opt's rows
    # stand, and the run exits 1
    monkeypatch.setattr(learner.os, "sched_getaffinity", lambda pid: {0, 1})
    threads, fitters = [], []

    def fit(*args, fn=cli.full_batch_minimize, **kwargs):
        fitters.append(threading.current_thread())
        return fn(*args, **kwargs)

    def fails(loss, Xb, yb, t, fn=baselines._newton_terms):
        if len(yb) == 1 and not threads:
            threads.append(threading.current_thread())
            raise RuntimeError("block boom")
        return fn(loss, Xb, yb, t)

    monkeypatch.setattr(cli, "full_batch_minimize", fit)
    monkeypatch.setattr(baselines, "_newton_terms", fails)
    rows = block_rows(2) + 1
    cfg = _write(tmp_path / "c.txt", _with(TINY_COMPARE, "seeds = 1", "opt_list = 0.02, 0.05", f"conv_n = {rows}"))
    out = tmp_path / "o.csv"
    assert main(["compare", "--config", cfg, "--out", str(out), "--workers", "2"]) == 1
    assert threads[0] not in (fitters[0], threading.main_thread())
    got = _rows(out)[1:]
    assert got[0] == ["FAILED", "RuntimeError: block boom"] + [""] * 8
    assert [row[:4] for row in got[1:]] == [["gaussian", "0.05", "logistic", "60"]]


def test_cli_import_does_not_load_multiprocessing():
    # the group pool is threads; importing multiprocessing would add to every start-up
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, halfspace_sgd.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_learn_failures_mark_their_groups(tmp_path, monkeypatch):
    cfg = _write(tmp_path / "c.txt", TINY_LEARN.replace("opt_list = 0.02", "opt_list = 0.02, 0.05"))
    select = learner._Trial.select

    def select_fails_at_005(trial, *args):
        # one group's own step fails in every seed job; the other group's reports stand
        if trial.opt_target == 0.05:
            raise RuntimeError("report boom")
        return select(trial, *args)

    monkeypatch.setattr(learner._Trial, "select", select_fails_at_005)
    out = tmp_path / "r.csv"
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 1
    assert [r[0] for r in _rows(out)[1:]] == ["50", "51", "FAILED"]

    def psgd_fails(*args, **kwargs):
        raise RuntimeError("psgd boom")

    monkeypatch.setattr(learner, "psgd_lockstep", psgd_fails)
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 1
    assert [r[:2] for r in _rows(out)[1:]] == [["FAILED", "RuntimeError: psgd boom"]] * 2


@pytest.mark.parametrize("line", ["family = heavy_tailed", "d = 7", "seeds = 4", "seed_base = 3"])
def test_lowerbound_rejects_trial_keys(tmp_path, line):
    cfg = _write(tmp_path / "c.txt", TINY_LOWERBOUND + line + "\n")
    assert main(["lowerbound", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


def test_compare_requires_2d(tmp_path):
    cfg = _write(tmp_path / "c.txt", "d = 5\n")
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


def test_parse_config_defaults_and_lists(tmp_path):
    cfg_path = _write(tmp_path / "c.txt", "opt_list = 0.1, 0.2 # trailing comment\nseeds = 3\n")
    cfg = parse_config(cfg_path, "learn")
    assert cfg["opt_list"] == (0.1, 0.2)
    assert cfg["seeds"] == 3
    assert cfg["family"] == "gaussian"


def test_parse_config_closes_its_file(tmp_path):
    cfg_path = _write(tmp_path / "c.txt", "seeds = 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        parse_config(cfg_path, "learn")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_learn_rows_and_determinism(tmp_path):
    cfg = _write(tmp_path / "c.txt", TINY_LEARN)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["learn", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["learn", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = _rows(out1)
    assert rows[0][:4] == ["seed", "family", "d", "opt_target"]
    assert len(rows) == 1 + 2  # header + opts x seeds
    assert [r[0] for r in rows[1:]] == ["50", "51"]
    assert all(r[-1] == "0.0" for r in rows[1:])  # wall_ms suppressed by default


def test_learn_timing_flag_changes_only_wall_ms(tmp_path):
    cfg = _write(tmp_path / "c.txt", TINY_LEARN)
    out1, out2 = tmp_path / "a.csv", tmp_path / "t.csv"
    assert main(["learn", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["learn", "--config", cfg, "--out", str(out2), "--timing"]) == 0
    r1, r2 = _rows(out1), _rows(out2)
    for a, b in zip(r1[1:], r2[1:]):
        assert a[:-1] == b[:-1]
        assert float(b[-1]) > 0.0


def test_sweep_emits_per_sigma_rows(tmp_path):
    cfg = _write(tmp_path / "c.txt", TINY_LEARN)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out)
    assert rows[0][:5] == ["seed", "family", "d", "opt_target", "sigma"]
    assert len(rows) == 1 + 2 * 2  # header + seeds x grid
    assert {r[4] for r in rows[1:]} == {"0.2", "0.1"}


def test_learn_csv_slope_postprocessing(tmp_path):
    # the downstream check on the emitted table: median err vs opt has a
    # positive O(1) slope (reduced-size run; the acceptance gate runs it full)
    cfg = _write(tmp_path / "c.txt", """
family = gaussian
d = 5
opt_list = 0.01, 0.05
seeds = 3
seed_base = 70
t_cap = 20000
grid = 0.2, 0.1, 0.05
holdout_size = 20000
eval_size = 50000
stride = 100
""")
    out = tmp_path / "slope.csv"
    assert main(["learn", "--config", cfg, "--out", str(out)]) == 0
    rows = _rows(out)
    by_opt = {}
    for r in rows[1:]:
        by_opt.setdefault(float(r[3]), []).append(float(r[6]))
    opts = sorted(by_opt)
    medians = [sorted(by_opt[o])[len(by_opt[o]) // 2] for o in opts]
    slope = (medians[1] - medians[0]) / (opts[1] - opts[0])
    assert medians[0] <= medians[1]
    assert 0.5 <= slope <= 6.0


def test_compare_rows_and_determinism(tmp_path):
    cfg = _write(tmp_path / "c.txt", TINY_COMPARE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = _rows(out1)
    assert rows[0][0] == "family" and rows[0][2] == "loss"
    assert len(rows) == 1 + 2  # 1 opt x 1 loss x 2 seeds
    for r in rows[1:]:
        assert float(r[8]) <= 1e-6  # convex grad norm hit gtol
        assert float(r[9]) > 0.0    # predicted floor


def test_lowerbound_certifies_and_workers_match(tmp_path):
    # two cells, so with two or more CPUs the default scans them on threads
    cfg = _write(tmp_path / "c.txt", TINY_LOWERBOUND.replace("losses = logistic", "losses = logistic, hinge"))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["lowerbound", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
    rows = _rows(out1)
    assert [r[0] for r in rows[1:]] == ["logistic", "hinge"]
    for r in rows[1:]:
        assert r[-1] == "1"  # certified
        assert float(r[7]) > 10.0 * float(r[9])
    assert main(["lowerbound", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_lowerbound_quadrature_failure_marks_and_exits_1(tmp_path):
    cfg = _write(tmp_path / "c.txt", TINY_LOWERBOUND + "tol = 1e-18\n")
    out = tmp_path / "f.csv"
    assert main(["lowerbound", "--config", cfg, "--out", str(out)]) == 1
    rows = _rows(out)
    assert rows[1][0] == "FAILED"


def test_readme_key_tables_match_schemas():
    # one "#### `cmd` ..." table per subcommand under "### Config keys": key, default, accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in section.split("\n#### ")[1:]:
        heading, _, body = block.partition("\n")
        rows = [line.split("|")[1:3] for line in body.splitlines() if line.startswith("| `")]
        for command in re.findall(r"`(\w+)`", heading):
            tables[command] = {key.strip().strip("`"): default.split("`")[1] for key, default in rows}
    assert sorted(tables) == sorted(cli._SCHEMAS)
    for command, schema in cli._SCHEMAS.items():
        assert sorted(tables[command]) == sorted(schema), command
        for key, (parser, default, _) in schema.items():
            assert parser(tables[command][key]) == default, (command, key)
