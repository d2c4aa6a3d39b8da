"""Per-layer spans for a traced benchmark process.

Layers are the modules of halfspace_sgd. install() replaces a fixed set of
their public functions with wrappers that record one span per call and count
the work the call did. Modules import each other's functions by name
(learner holds psgd_lockstep, optimizer holds surrogate_grad_rows, oracle
holds refine_by_doubling), so each wrapper replaces the original in every
loaded halfspace_sgd namespace that holds it, not only in the module that
defines it. No program file is changed.

Spans are kept in memory, aggregated by call path: calls, total seconds and
self seconds. A span's self time is its duration minus that of the spans
opened inside it.
"""

import sys
import time
from collections import defaultdict

MIB = float(1 << 20)

# Sampling entry points; radial-tail evaluations made inside them are
# sampling work (the bisection inverse), those made elsewhere are not.
SAMPLING = ("distributions.sample", "distributions.SampleStream.take")


def _points(c, args, out):
    c["distributions.points"] += out.shape[0]


def _tail_eval(c, args, out):
    c["distributions.tail_evals"] += 1


def _dataset(c, args, out):
    mb = (out.x.nbytes + out.y.nbytes + out.flipped.nbytes) / MIB
    c["noise.dataset_mb"] = max(c["noise.dataset_mb"], mb)


def _grad_rows(c, args, out):
    c["losses.grad_rows"] += out.shape[0]


def _lockstep(c, args, out):
    c["optimizer.row_steps"] += out.kept.shape[0] * int(out.kept_steps[-1])
    c["optimizer.kept_mb"] = max(c["optimizer.kept_mb"], out.kept.nbytes / MIB)


def _pairs(c, args, out):
    c["learner.pairs_scored"] += args[0].shape[0] * args[1].x.shape[0]


def _iterations(c, args, out):
    c["baselines.iterations"] += out[2]


def _gradients(c, args, out):
    c["oracle.gradients"] += out.grid_points


# (module, attribute, work counter); the span is named "module.attribute".
TARGETS = [
    ("distributions", "sample", _points),
    ("distributions", "SampleStream.take", _points),
    ("distributions", "radial_tail_mass", _tail_eval),
    ("distributions", "truncated_first_moment", _tail_eval),
    ("distributions", "truncated_second_moment", _tail_eval),
    ("noise", "make_dataset", _dataset),
    ("noise", "corrupt_labels", None),
    ("losses", "surrogate_grad_rows", _grad_rows),
    ("optimizer", "psgd_lockstep", _lockstep),
    ("optimizer", "batch_grad_norms", None),
    ("learner", "learn_batch", None),
    ("learner", "zero_one_errors", _pairs),
    ("baselines", "full_batch_minimize", _iterations),
    ("quadrature", "refine_by_doubling", None),
    ("oracle", "scan_cone", _gradients),
    ("oracle", "admissible_theta", None),
    ("oracle", "predicted_floor", None),
]


def _counting_refine(c, refine):
    """refine_by_doubling that counts integrals, estimates and nodes in c by
    wrapping the estimate callback it is given."""

    def counted(estimate, *args, **kwargs):
        def counted_estimate(k):
            out = estimate(k)
            c["quadrature.estimates"] += 1
            c["quadrature.nodes"] += out[2]
            return out

        c["quadrature.integrals"] += 1
        return refine(counted_estimate, *args, **kwargs)

    return counted


class Tracer:
    def __init__(self):
        self._stack = []            # open spans: [name, seconds in child spans]
        self.spans = {}             # call path -> [calls, total_s, self_s]
        self.counts = defaultdict(float)
        self.root_s = 0.0           # time covered by spans with no enclosing span
        self.hook_errors = set()

    def wrap(self, name, fn, count=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                path = tuple(f[0] for f in stack)
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.root_s += dt
                rec = spans.get(path)
                if rec is None:
                    rec = spans[path] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.hook_errors.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, wall_s):
        """Per-layer metrics as {name: [value, unit]} for a process whose
        command took wall_s seconds."""
        total = defaultdict(float)
        own = defaultdict(float)
        layer_self = defaultdict(float)
        grad_in_psgd = 0.0
        for path, (_, tot, slf) in self.spans.items():
            name = path[-1]
            total[name] += tot
            own[name] += slf
            layer_self[name.split(".")[0]] += slf
            if name == "losses.surrogate_grad_rows" and path[-2:-1] == ("optimizer.psgd_lockstep",):
                grad_in_psgd += tot
        c = self.counts

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        sample_s = sum(total[n] for n in SAMPLING)
        psgd_self = own["optimizer.psgd_lockstep"]
        return {
            "distributions.sample_s": [sample_s, "s"],
            "distributions.tail_s": [layer_self["distributions"] - sample_s, "s"],
            "distributions.points": [c["distributions.points"], "count"],
            "distributions.tail_evals": [c["distributions.tail_evals"], "count"],
            "noise.label_s": [layer_self["noise"], "s"],
            "noise.dataset_mb": [c["noise.dataset_mb"], "MB"],
            "losses.grad_s": [layer_self["losses"], "s"],
            "losses.grad_rows": [c["losses.grad_rows"], "count"],
            "optimizer.psgd_self_s": [psgd_self, "s"],
            "optimizer.row_steps": [c["optimizer.row_steps"], "count"],
            "optimizer.us_per_row_step": [per(psgd_self + grad_in_psgd, c["optimizer.row_steps"], 1e6), "us"],
            "optimizer.kept_mb": [c["optimizer.kept_mb"], "MB"],
            "optimizer.graddiag_s": [own["optimizer.batch_grad_norms"], "s"],
            "learner.score_s": [own["learner.zero_one_errors"], "s"],
            "learner.pairs_scored": [c["learner.pairs_scored"], "count"],
            "learner.ns_per_pair": [per(own["learner.zero_one_errors"], c["learner.pairs_scored"], 1e9), "ns"],
            "learner.report_s": [own["learner.learn_batch"], "s"],
            "baselines.minimize_s": [layer_self["baselines"], "s"],
            "baselines.iterations": [c["baselines.iterations"], "count"],
            "quadrature.refine_s": [layer_self["quadrature"], "s"],
            "quadrature.integrals": [c["quadrature.integrals"], "count"],
            "quadrature.nodes": [c["quadrature.nodes"], "count"],
            "quadrature.estimates_per_integral": [
                per(c["quadrature.estimates"], c["quadrature.integrals"], 1.0), "ratio"],
            "oracle.scan_self_s": [layer_self["oracle"], "s"],
            "oracle.gradients": [c["oracle.gradients"], "count"],
            "oracle.ms_per_gradient": [per(total["oracle.scan_cone"], c["oracle.gradients"], 1e3), "ms"],
            "cli.other_s": [wall_s - self.root_s, "s"],
        }

    def span_table(self):
        """[call path, calls, total_s, self_s] rows, longest total first."""
        rows = [[" > ".join(p), n, tot, slf] for p, (n, tot, slf) in self.spans.items()]
        return sorted(rows, key=lambda r: -r[2])


def install(tracer):
    """Wrap every target in every halfspace_sgd namespace holding it; return
    the targets that could not be found or counted, for the report."""
    import halfspace_sgd.cli  # noqa: F401  (loads every module)

    modules = [m for n, m in list(sys.modules.items())
               if n == "halfspace_sgd" or n.startswith("halfspace_sgd.")]
    missing = []
    for module_name, attr, count in TARGETS:
        name = f"{module_name}.{attr}"
        holder = sys.modules.get(f"halfspace_sgd.{module_name}")
        *outer, leaf = attr.split(".")
        try:
            for part in outer:
                holder = getattr(holder, part)
            original = getattr(holder, leaf)
        except AttributeError:
            missing.append(name)
            continue
        fn = _counting_refine(tracer.counts, original) if name == "quadrature.refine_by_doubling" else original
        traced = tracer.wrap(name, fn, count)
        if outer:  # a method: replace it on its class
            setattr(holder, leaf, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return missing
