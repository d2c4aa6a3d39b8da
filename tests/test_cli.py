import csv
from concurrent.futures import Future
from pathlib import Path

import pytest

from halfspace_sgd import cli
from halfspace_sgd.cli import main, parse_config


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
    cfg = _write(tmp_path / "c.txt", TINY_LEARN.replace("opt_list = 0.02", "opt_list = 0.02, 0.05"))
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["learn", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["learn", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
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
    ("learn", TINY_LEARN + "stride = 0\n", [], "stride must be >= 1"),
    ("learn", TINY_LEARN + "t_cap = 0\n", [], "t_cap must be >= 1"),
    ("learn", TINY_LEARN + "eval_size = 0\n", [], "eval_size must be >= 1"),
    ("learn", TINY_LEARN + "holdout_size = -5\n", [], "holdout_size must be >= 1"),
    ("learn", TINY_LEARN + "grid = -0.1\n", [], "sigma grid"),
    ("learn", TINY_LEARN + "theta2 = 1.0\n", [], "theta2"),
    ("learn", TINY_LEARN + "epsilon = 2\n", [], "epsilon"),
    ("learn", TINY_LEARN + "rho = -1\n", [], "rho must be positive"),
    ("learn", TINY_LEARN + "rho = 0\n", [], "rho must be positive"),
    ("compare", TINY_COMPARE + "conv_n = 0\n", [], "conv_n must be >= 1"),
    ("compare", TINY_COMPARE + "holdout_k = 0\n", [], "holdout_size must be >= 1"),
    ("lowerbound", TINY_LOWERBOUND + "grid_points = 0\n", [], "grid_points must be >= 1"),
    ("lowerbound", TINY_LOWERBOUND + "opt = 0\n", [], "tail mass"),
], ids=["negative-workers", "logconcave-d10", "unknown-family", "unknown-loss", "s-at-2",
        "squared-hinge-heavy", "d-1", "stride-0", "t_cap-0", "eval_size-0", "holdout_size-neg",
        "grid-neg", "theta2-1", "epsilon-2", "rho-neg", "rho-0", "conv_n-0", "holdout_k-0",
        "grid_points-0", "opt-0"])
def test_bad_input_exits_2_before_any_work(tmp_path, capsys, command, text, flags, needle):
    out = tmp_path / "o.csv"
    cfg = _write(tmp_path / "c.txt", text)
    assert main([command, "--config", cfg, "--out", str(out)] + flags) == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_run_groups_caps_workers_and_marks_failures(monkeypatch):
    started = []

    class FakePool:
        """Records max_workers and runs each submission at once, in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            fut = Future()
            try:
                fut.set_result(fn(arg))
            except Exception as exc:
                fut.set_exception(exc)
            return fut

    def worker(g):
        if g == 1:
            raise RuntimeError("boom")
        return [[g, "ok"]]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    # (workers, groups) -> pool sizes started: min(workers, groups, cpu count), none when 1
    for workers, n_groups, pools in [(8, 2, [2]), (8, 5, [3]), (2, 5, [2]), (1, 5, []), (8, 1, [])]:
        started.clear()
        rows, failed = cli._run_groups(list(range(n_groups)), worker, workers, 2)
        assert started == pools
        assert failed == (n_groups > 1)
        assert [r[0] for r in rows] == [0, "FAILED", 2, 3, 4][:n_groups]
        if n_groups > 1:
            assert rows[1] == ["FAILED", "RuntimeError: boom"]


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
    cfg = _write(tmp_path / "c.txt", TINY_LOWERBOUND)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["lowerbound", "--config", cfg, "--out", str(out1)]) == 0
    rows = _rows(out1)
    assert len(rows) == 2
    assert rows[1][-1] == "1"  # certified
    assert float(rows[1][7]) > 10.0 * float(rows[1][9])
    assert main(["lowerbound", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_lowerbound_quadrature_failure_marks_and_exits_1(tmp_path):
    cfg = _write(tmp_path / "c.txt", TINY_LOWERBOUND + "tol = 1e-18\n")
    out = tmp_path / "f.csv"
    assert main(["lowerbound", "--config", cfg, "--out", str(out)]) == 1
    rows = _rows(out)
    assert rows[1][0] == "FAILED"
