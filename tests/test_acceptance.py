"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines as they complete. The slow end-to-end criteria (5 and 7) take a
few minutes and carry the ``slow`` marker (``-m "not slow"`` skips them);
everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from halfspace_sgd import distributions as dist
from halfspace_sgd.cli import main as cli_main
from halfspace_sgd.geometry import angle_between, halfspace_labels, unit_vector
from halfspace_sgd.learner import LearnerConfig, default_holdout_size, learn_batch
from halfspace_sgd.losses import convex_surrogate
from halfspace_sgd.noise import NoisyExampleStream, far_flip, make_dataset
from halfspace_sgd.optimizer import PsgdConfig, psgd_lockstep
from halfspace_sgd.oracle import admissible_theta, predicted_floor, scan_cone
from halfspace_sgd.baselines import full_batch_minimize
from helpers import (
    ks_uniform,
    least_squares_line,
    quad_tail_mass,
    radial_cdf,
    surrogate_grad_sample,
    surrogate_loss_sample,
)

FAMILIES_2D = {
    "gaussian": dist.gaussian(2),
    "logconcave": dist.log_concave(),
    "heavy_tailed": dist.heavy_tailed(3.0),
}


def _report(line: str):
    print(f"\n[ACCEPTANCE] {line}")


def test_c1_gradient_correctness():
    # 200 random tuples, d = 5, sigma in {0.05, 0.2, 1.0}: analytic gradient vs
    # central finite differences, relative error <= 1e-5, under 5 seconds.
    # Tuples whose normalized margin exceeds ~15 sigma are redrawn: there the
    # loss saturates within 1 ulp of {0, 1} and a double-precision difference
    # quotient carries no information.
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    sigmas = (0.05, 0.2, 1.0)
    checked = 0
    worst = 0.0
    while checked < 200:
        sigma = sigmas[checked % 3]
        w = rng.standard_normal(5) * rng.uniform(0.5, 2.0)
        x = rng.standard_normal(5)
        y = 1 if rng.random() < 0.5 else -1
        if abs(float(w @ x)) / float(np.linalg.norm(w)) > 15.0 * sigma:
            continue
        g = surrogate_grad_sample(w, x, y, sigma)
        h = 1e-6 * max(1.0, float(np.linalg.norm(w)))
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (
                surrogate_loss_sample(w + e, x, y, sigma)
                - surrogate_loss_sample(w - e, x, y, sigma)
            ) / (2 * h)
        rel = float(np.linalg.norm(g - fd)) / max(float(np.linalg.norm(g)), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-5
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(f"C1 gradient correctness: PASS (200 tuples, worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_c2_sphere_invariant():
    # T = 1e4 run: every iterate norm within 1e-12 of 1, and <grad, w> <= 1e-10
    # at 100 sampled steps
    spec = dist.gaussian(5)
    model = far_flip(unit_vector(5, 1), Z=dist.z_for_tail_mass(spec, 0.02), theta2=math.pi / 8)
    stream = NoisyExampleStream(spec, [model], seed=2002)
    iterates = psgd_lockstep([stream], [PsgdConfig(T=10_000, sigma=0.1)]).kept[0]
    norms = np.linalg.norm(iterates, axis=1)
    max_norm_err = float(np.max(np.abs(norms - 1.0)))
    assert max_norm_err <= 1e-12

    rng = np.random.default_rng(2003)
    worst_dot = 0.0
    for w in iterates[:: len(iterates) // 100][:100]:
        x = rng.standard_normal(5)
        y = 1 if rng.random() < 0.5 else -1
        g = surrogate_grad_sample(w, x, y, 0.1)
        worst_dot = max(worst_dot, abs(float(g @ w)))
    assert worst_dot <= 1e-10
    _report(f"C2 sphere invariant: PASS (max norm err {max_norm_err:.1e}, max <g,w> {worst_dot:.1e})")


def test_c3_sampler_fidelity():
    n = 1_000_000
    bound = 1.95 * 2.0 / math.sqrt(n)
    start = time.perf_counter()
    lines = []
    for idx, (name, spec) in enumerate(FAMILIES_2D.items()):
        X = dist.sample(spec, n, seed=3000 + idx)
        radial_ks = ks_uniform(radial_cdf(spec, np.linalg.norm(X, axis=1)))
        angular_ks = ks_uniform(np.mod(np.arctan2(X[:, 1], X[:, 0]), 2 * math.pi) / (2 * math.pi))
        assert radial_ks <= bound
        assert angular_ks <= bound
        z_hi = dist.z_for_tail_mass(spec, 1e-4)
        worst = 0.0
        for Z in np.linspace(0.0, z_hi, 20):
            gap = abs(dist.radial_tail_mass(spec, Z) - quad_tail_mass(spec, Z))
            worst = max(worst, gap)
        assert worst <= 1e-8
        lines.append(f"{name}: KS_r={radial_ks:.2e} KS_a={angular_ks:.2e} tail gap {worst:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(f"C3 sampler fidelity: PASS ({'; '.join(lines)}; {elapsed:.1f}s)")


def test_c4_disagreement_is_angle_over_pi():
    spec = dist.gaussian(5)
    n = 1_000_000
    X = dist.sample(spec, n, seed=4004)
    u = unit_vector(5, 1)
    lines = []
    for theta in (0.1, 0.5, 1.0, math.pi / 2):
        v = math.cos(theta) * u + math.sin(theta) * unit_vector(5, 2)
        dis = float(np.mean(halfspace_labels(u, X) != halfspace_labels(v, X)))
        p = theta / math.pi
        tol = 4.0 * math.sqrt(p * (1 - p) / n)
        assert abs(dis - p) <= tol
        lines.append(f"theta={theta:.2f}: |{dis:.5f}-{p:.5f}|<= {tol:.1e}")
    _report(f"C4 disagreement theta/pi: PASS ({'; '.join(lines)})")


@pytest.mark.slow
def test_c5_upper_bound_scaling():
    # d = 10, far-flip, opt in {0.005, 0.01, 0.02, 0.05}, eps = 0.01, 10 seeds,
    # T capped at 2e5: medians non-decreasing, slope in [0.5, 6], intercept <= 0.02
    spec = dist.gaussian(10)
    w_star = unit_vector(10, 1)
    opts = (0.005, 0.01, 0.02, 0.05)
    config = LearnerConfig(epsilon=0.01, delta=0.01, t_cap=200_000)
    medians = []
    start = time.perf_counter()
    n_hold = default_holdout_size(10, config.epsilon, config.delta)
    groups = [(far_flip(w_star, Z=dist.z_for_tail_mass(spec, opt), theta2=math.pi / 8), opt, n_hold) for opt in opts]
    for reports in learn_batch(spec, groups, config, seeds=[5000 + j for j in range(10)]):
        assert not isinstance(reports, Exception), reports
        medians.append(float(np.median([r.err01 for r in reports])))
    elapsed = time.perf_counter() - start
    assert all(a <= b + 1e-12 for a, b in zip(medians, medians[1:])), medians
    slope, intercept = least_squares_line(opts, medians)
    assert 0.5 <= slope <= 6.0, (slope, medians)
    assert intercept <= 0.02, (intercept, medians)
    _report(
        "C5 upper-bound scaling: PASS (medians "
        + ", ".join(f"{m:.4f}" for m in medians)
        + f"; slope {slope:.2f}, intercept {intercept:.4f}, {elapsed:.0f}s)"
    )


def test_c6_lower_bound_certification():
    opt = 0.01
    start = time.perf_counter()
    lines = []
    for kind in ("logistic", "hinge"):
        loss = convex_surrogate(kind)
        for name, spec in FAMILIES_2D.items():
            Z = dist.z_for_tail_mass(spec, opt)
            theta = admissible_theta(spec, Z)
            rep = scan_cone(loss, spec, Z, theta, grid_points=101)
            assert rep.min_grad_norm > 10.0 * rep.max_quad_error, (kind, name, rep)
            lines.append(f"{kind}/{name}: min|g|={rep.min_grad_norm:.3f} err={rep.max_quad_error:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(f"C6 cone certification: PASS ({'; '.join(lines)}; {elapsed:.0f}s)")


def _compare_cell(spec, opt, seeds, grid, t_cap, holdout_k=2000.0, holdout_cap=2_500_000):
    """Sigmoid pipeline vs full-batch logistic minimizer on the same far-flip
    construction; mirrors the compare harness defaults."""
    w_star = unit_vector(2, 1)
    Z = dist.z_for_tail_mass(spec, opt)
    theta = admissible_theta(spec, Z)
    model = far_flip(w_star, Z=Z, theta2=2.0 * theta)

    conv_ds = make_dataset(spec, model, 1_000_000, seed=7000)
    w_c, gnorm, _ = full_batch_minimize(convex_surrogate("logistic"), conv_ds.x, conv_ds.y, w0=w_star)
    assert gnorm <= 1e-6
    convex_angle = angle_between(w_c / np.linalg.norm(w_c), w_star)

    config = LearnerConfig(grid=grid, t_cap=t_cap, rho=1.0, eval_size=200_000, candidate_stride=250)
    n_hold = min(holdout_cap, int(math.ceil(holdout_k / opt)))
    [reports] = learn_batch(spec, [(model, opt, n_hold)], config, seeds)
    assert not isinstance(reports, Exception), reports
    sigmoid_angle = float(np.median([r.angle_to_wstar for r in reports]))
    return sigmoid_angle, convex_angle


@pytest.mark.slow
def test_c7_separation():
    seeds = [7100 + j for j in range(10)]
    start = time.perf_counter()

    heavy = dist.heavy_tailed(3.0)
    sig_h, conv_h = _compare_cell(heavy, 1e-3, seeds, grid=(0.06, 0.03, 0.015), t_cap=200_000)
    assert conv_h >= 5.0 * sig_h, (conv_h, sig_h)

    gauss = dist.gaussian(2)
    sig_2, conv_2 = _compare_cell(gauss, 1e-2, seeds, grid=(0.06, 0.03, 0.015), t_cap=200_000)
    sig_3, conv_3 = _compare_cell(gauss, 1e-3, seeds, grid=(0.03, 0.015, 0.0075), t_cap=400_000)
    assert conv_3 / 1e-3 > conv_2 / 1e-2, (conv_2, conv_3)
    assert sig_3 / 1e-3 <= 1.5 * (sig_2 / 1e-2), (sig_2, sig_3)
    elapsed = time.perf_counter() - start
    _report(
        "C7 separation: PASS (heavy: convex "
        f"{conv_h:.4f} >= 5 x sigmoid {sig_h:.2e}; gaussian ratios convex "
        f"{conv_2 / 1e-2:.2f}->{conv_3 / 1e-3:.2f}, sigmoid {sig_2 / 1e-2:.3g}->{sig_3 / 1e-3:.3g}; {elapsed:.0f}s)"
    )


def test_c8_floor_exponent_fits():
    start = time.perf_counter()
    opts = np.array([1e-2, 1e-3, 1e-4])

    gauss = dist.gaussian(2)
    floors = np.array([predicted_floor(gauss, o) for o in opts])
    slope_g, _ = least_squares_line(np.log(opts), np.log(floors))
    assert abs(slope_g - 1.0) <= 0.15
    ratios = floors / opts
    assert ratios[0] < ratios[1] < ratios[2]  # the sqrt-log correction, visible

    slopes = {}
    for s in (3.0, 4.0):
        heavy = dist.heavy_tailed(s)
        fl = np.array([predicted_floor(heavy, o) for o in opts])
        slope, _ = least_squares_line(np.log(opts), np.log(fl))
        assert abs(slope - (1.0 - 1.0 / s)) <= 0.05, (s, slope)
        slopes[s] = slope
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        f"C8 floor exponents: PASS (gaussian slope {slope_g:.3f}, heavy "
        f"s=3: {slopes[3.0]:.3f} vs 2/3, s=4: {slopes[4.0]:.3f} vs 3/4; {elapsed:.1f}s)"
    )


CLI_CONFIGS = {
    "learn": """
family = gaussian
d = 3
opt_list = 0.02
seeds = 2
seed_base = 90
t_cap = 2000
grid = 0.2, 0.1
holdout_size = 4000
eval_size = 4000
stride = 100
""",
    "sweep": """
family = gaussian
d = 3
opt_list = 0.02, 0.05
seeds = 2
seed_base = 91
t_cap = 1500
grid = 0.2, 0.1
holdout_size = 4000
eval_size = 4000
stride = 100
""",
    "compare": """
family = heavy_tailed
s = 3.0
opt_list = 0.02
seeds = 2
seed_base = 92
t_cap = 2000
grid = 0.1, 0.05
holdout_k = 40
eval_size = 4000
conv_n = 20000
stride = 100
""",
    "lowerbound": """
families = gaussian, logconcave
losses = logistic
opt = 0.01
grid_points = 5
""",
}


def test_c9_cli_determinism(tmp_path):
    for command, text in CLI_CONFIGS.items():
        cfg = tmp_path / f"{command}.txt"
        cfg.write_text(text)
        out1 = tmp_path / f"{command}_1.csv"
        out2 = tmp_path / f"{command}_2.csv"
        assert cli_main([command, "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), command
    _report("C9 CLI determinism: PASS (learn, sweep, compare, lowerbound byte-identical)")
