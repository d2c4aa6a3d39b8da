"""Each output check of the benchmark rejects a deliberately wrong CSV.

    python3 -m pytest bench/test_checks.py

The good CSVs are real outputs of the three workloads at --seed 1; every
mutation below breaks one property and must make its named check fail,
while the unmodified output passes.
"""

import csv
import io
import json

import pytest

import checks
import run

SEED = 1

GOOD = {
    "learn-gauss-d10": """\
seed,family,d,opt_target,measured_noise_rate,sigma_best,err01,angle_to_wstar,T_used,beta,wall_ms
1000,gaussian,10,0.01,0.005755,0.08,0.010535,0.015269079627811991,20000,0.0004,0.0
1001,gaussian,10,0.01,0.006295,0.08,0.009935,0.011659300442269548,20000,0.0004,0.0
1000,gaussian,10,0.05,0.030735,0.08,0.035655,0.01651041221191578,20000,0.0004,0.0
1001,gaussian,10,0.05,0.030775,0.08,0.034365,0.012028868866316727,20000,0.0004,0.0
# halfspace-sgd-0.1.0 command=learn schema=1
""",
    "compare-heavy-s3": """\
family,opt,loss,seed,sigmoid_angle,sigmoid_err01,sigma_best,convex_angle,convex_grad_norm,predicted_floor
heavy_tailed,0.001,logistic,1000,7.057514797069243e-05,0.000495,0.03,0.02206133165601953,4.511774090306464e-07,0.0009397843261663821
# halfspace-sgd-0.1.0 command=compare schema=1
""",
    "lowerbound-all": """\
loss,family,opt,Z,admissible_theta,theta,grid_points,min_grad_norm,argmin_angle,quad_error,certified
logistic,gaussian,0.01,3.034854258770293,0.0011092137096841315,0.0011092137096841315,101,0.18197449731691515,0.0011092137096841315,1.0000103853210058e-10,1
logistic,logconcave,0.01,1.9163271767159245,0.0016185969914895924,0.0016185969914895924,101,0.11952481201876318,0.0016185969914895924,1.0000064114637224e-10,1
logistic,heavy_tailed,0.01,4.979704341652223,0.00407836043484762,0.00407836043484762,101,0.10738275090391984,0.00407836043484762,1.0311207196112638e-10,1
hinge,gaussian,0.01,3.034854258770293,0.0011092137096841315,0.0011092137096841315,101,0.30309529598054935,0.0011092137096841315,1.0000136204218161e-10,1
hinge,logconcave,0.01,1.9163271767159245,0.0016185969914895924,0.0016185969914895924,101,0.28525439902928507,0.0016185969914895924,1.00000993987875e-10,1
hinge,heavy_tailed,0.01,4.979704341652223,0.00407836043484762,0.00407836043484762,101,0.23908227182767786,0.00407836043484762,1.110752366186091e-10,1
# halfspace-sgd-0.1.0 command=lowerbound schema=1
""",
}


def mutate(text, row, column, fn):
    """The CSV with fn applied to one cell (row counts data rows from 0)."""
    lines = text.splitlines(keepends=True)
    data = list(csv.reader(lines[:-1]))
    col = data[0].index(column)
    data[row + 1][col] = repr(fn(float(data[row + 1][col])))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(data)
    return buf.getvalue() + lines[-1]


def failed_row(text, row):
    """The CSV with one data row replaced by the program's FAILED marker."""
    lines = text.splitlines(keepends=True)
    width = len(lines[0].split(","))
    lines[row + 1] = ",".join(["FAILED", "QuadratureError: boom"] + [""] * (width - 2)) + "\n"
    return "".join(lines)


def _se(opt):
    flip = opt * (0.5 + run.LEARN["theta2"] / 3.141592653589793)
    return (flip * (1.0 - flip) / run.LEARN["eval_size"]) ** 0.5


LEARN, COMPARE, LOWER = "learn-gauss-d10", "compare-heavy-s3", "lowerbound-all"

MUTATIONS = [
    # (workload, wrong output, the check that must fail)
    (LEARN, lambda t: mutate(t, 0, "measured_noise_rate", lambda v: v + 10 * _se(0.01)), "noise_rate"),
    (LEARN, lambda t: mutate(t, 2, "err01", lambda v: v + 0.01), "err_vs_angle"),
    (LEARN, lambda t: mutate(mutate(t, 0, "err01", lambda v: 0.09), 1, "err01", lambda v: 0.09), "err_scaling"),
    (LEARN, lambda t: failed_row(t, 3), "rows"),
    (COMPARE, lambda t: mutate(t, 0, "convex_grad_norm", lambda v: 1e-5), "convex_grad_norm"),
    (COMPARE, lambda t: mutate(t, 0, "convex_angle", lambda v: 0.0009), "convex_outside_cone"),
    (COMPARE, lambda t: mutate(t, 0, "sigmoid_angle", lambda v: 0.01), "separation"),
    (COMPARE, lambda t: mutate(t, 0, "predicted_floor", lambda v: v * 1.001), "predicted_floor"),
    (COMPARE, lambda t: failed_row(t, 0), "rows"),
    (LOWER, lambda t: mutate(t, 2, "min_grad_norm", lambda v: v * 1.1), "mc_gradient"),
    (LOWER, lambda t: mutate(t, 0, "argmin_angle", lambda v: v + 0.5), "mc_gradient"),
    (LOWER, lambda t: t.replace(",1\nhinge,gaussian", ",0\nhinge,gaussian"), "certified"),
    (LOWER, lambda t: mutate(t, 1, "quad_error", lambda v: 1e-11), "quad_error_floor"),
    (LOWER, lambda t: mutate(t, 0, "Z", lambda v: v * 1.0001), "flip_radius"),
    (LOWER, lambda t: mutate(t, 5, "theta", lambda v: v * 1.001), "cone_angle"),
    (LOWER, lambda t: failed_row(t, 3), "rows"),
]


def _check(workload, text):
    return run.WORKLOADS[workload].check(text, SEED)


def _names(failures):
    return {f.split(":", 1)[0] for f in failures}


@pytest.mark.parametrize("workload", sorted(GOOD))
def test_real_output_passes(workload):
    assert _check(workload, GOOD[workload]) == []


@pytest.mark.parametrize("workload, wrong, check", MUTATIONS,
                         ids=[f"{w}-{c}-{i}" for i, (w, _, c) in enumerate(MUTATIONS)])
def test_wrong_output_fails(workload, wrong, check):
    text = wrong(GOOD[workload])
    assert text != GOOD[workload]
    assert check in _names(_check(workload, text))


def test_outputs_that_differ_fail():
    good = GOOD[LEARN]
    assert checks.check_identical([good, good, good]) == []
    other = mutate(good, 1, "err01", lambda v: v + 1e-6)
    assert _names(checks.check_identical([good, good, other])) == {"identical"}


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import spans

    declared = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(spans.Tracer().layer_metrics(1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in declared} == produced
