"""The one label rule, corrupt_labels, and the two example sources built on it.

Every dataset (make_dataset), every PSGD stream (NoisyExampleStream) and
every piece of the quadrature oracle is labeled by corrupt_labels. Labels
are a deterministic function of (w*, x): they carry no randomness of their
own, so a dataset is fixed by its points. Clean labels are the far-flip rule
with Z = inf, whose flip set is empty.

The far-flip construction corrupts a clean homogeneous halfspace w* by
flipping every label in S \\ C, where

    S = { x : ||x|| >= Z }               (everything far from the origin)
    C = { x : <w*, x> * <w_perp, x> <= 0 }

and ``w_perp`` is the perpendicular of the tilted direction ``w_tilde``
(w* rotated by theta2 within a fixed 2D frame) chosen so that
<w*, w_perp> >= 0. C is the antipodally symmetric pair of angular sectors
spanning from w_tilde to the w*-boundary ray on either side; the flip set is
therefore odd under x -> -x, the property the whole lower-bound analysis
rests on. w* misclassifies exactly the flipped points, so its error equals
the flip mass, which is at most Pr[||x|| >= Z].

In 2D the frame is pinned: w_tilde = Rot(+theta2) w* (counterclockwise). In
higher dimensions the rotation happens in the plane spanned by w* and its
least-aligned coordinate axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import SampleStream, block_rows
from .geometry import project_to_sphere, rotate2d

__all__ = [
    "NoiseModel",
    "LabeledDataset",
    "NoisyExampleStream",
    "far_flip",
    "corrupt_labels",
    "make_dataset",
]


@dataclass(frozen=True)
class NoiseModel:
    """The far-flip rule's parameters: w*, the tilt and the flip radius."""

    w_star: np.ndarray
    theta2: float                  # angle from w* to w_tilde, in (0, pi/4]
    Z: float                       # flip radius; inf flips nothing
    w_tilde: np.ndarray = field(repr=False)
    w_perp: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.w_star.shape[0]


def _tilt_frame(w_star: np.ndarray, theta2: float) -> tuple[np.ndarray, np.ndarray]:
    """(w_tilde, w_perp) for the far-flip regions.

    w_tilde = w* rotated by +theta2; w_perp is its in-plane perpendicular with
    <w*, w_perp> = sin(theta2) >= 0.
    """
    d = w_star.shape[0]
    if d == 2:
        w_tilde = rotate2d(w_star, theta2)
        w_perp = rotate2d(w_tilde, -math.pi / 2.0)
    else:
        axis = int(np.argmin(np.abs(w_star)))
        u = np.zeros(d)
        u[axis] = 1.0
        u = project_to_sphere(u - np.dot(u, w_star) * w_star)
        w_tilde = math.cos(theta2) * w_star + math.sin(theta2) * u
        w_perp = math.sin(theta2) * w_star - math.cos(theta2) * u
    if np.dot(w_star, w_perp) < 0:
        w_perp = -w_perp
    return w_tilde, w_perp


def far_flip(w_star, Z: float, theta2: float) -> NoiseModel:
    """Adversary flipping all labels in S \\ C (see module docstring)."""
    w_star = project_to_sphere(w_star)
    if not 0.0 < theta2 <= math.pi / 4.0:
        raise ValueError("far_flip needs 0 < theta2 <= pi/4")
    if not Z > 0.0:
        raise ValueError("far_flip needs Z > 0")
    w_tilde, w_perp = _tilt_frame(w_star, theta2)
    return NoiseModel(w_star, theta2=float(theta2), Z=float(Z), w_tilde=w_tilde, w_perp=w_perp)


def corrupt_labels(model: NoiseModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(observed labels, flip mask) of the rows of X: sign(<w*, x>), flipped
    on S \\ C. One X w* pass gives both the sign and the C test."""
    margin = X @ model.w_star
    in_s = np.sqrt(np.einsum("ij,ij->i", X, X)) >= model.Z
    in_c = margin * (X @ model.w_perp) <= 0.0
    flip = in_s & ~in_c
    return np.where((margin >= 0.0) != flip, 1.0, -1.0), flip  # sign(0) = +1, as in geometry


@dataclass
class LabeledDataset:
    """Points, observed labels and the mask of corrupted labels."""

    x: np.ndarray          # (n, d)
    y: np.ndarray          # (n,), +/-1 floats
    flipped: np.ndarray    # (n,) bool, True where y != sign(<w*, x>)

    def __post_init__(self):
        if not (len(self.x) == len(self.y) == len(self.flipped)):
            raise ValueError("fields must have equal length")
        # every row is checked, a row block at a time: no temporary of the set's length
        rows = block_rows(self.x.shape[1])
        blocks = [slice(lo, lo + rows) for lo in range(0, len(self), rows)]
        if not all(np.all(np.abs(self.y[b]) == 1.0) for b in blocks):
            raise ValueError("labels must be exactly +/-1")
        if not all(np.all(np.isfinite(self.x[b])) for b in blocks):
            raise ValueError("points must be finite in every coordinate")

    def __len__(self) -> int:
        return self.x.shape[0]


def _check_dims(spec, model: NoiseModel) -> None:
    if spec.dim != model.dim:
        raise ValueError(f"dimension mismatch: spec d={spec.dim}, noise d={model.dim}")


def make_dataset(spec, model: NoiseModel, n: int, seed: int) -> LabeledDataset:
    """n sampled points labeled by corrupt_labels; deterministic per seed and
    bitwise equal to sample(spec, n, seed) and its corrupt_labels.

    The points are drawn and labeled a row block (distributions.block_rows)
    at a time, straight into the output arrays, so the peak memory is the
    dataset plus about one block's temporaries."""
    _check_dims(spec, model)
    if n < 1:
        raise ValueError("need n >= 1 samples")
    x, y, flipped = np.empty((n, spec.dim)), np.empty(n), np.empty(n, dtype=bool)
    points, rows = SampleStream(spec, seed), block_rows(spec.dim)
    for lo in range(0, n, rows):
        b = slice(lo, min(n, lo + rows))
        x[b] = points.take(b.stop - lo)
        y[b], flipped[b] = corrupt_labels(model, x[b])
    return LabeledDataset(x, y, flipped)


class NoisyExampleStream:
    """Seeded stream of labeled examples: take(k) draws k marginal points once
    and returns them with their corrupt_labels under every model of a list,
    as the columns of a (k, len(models)) array; each column equals the labels
    of a stream built on that model alone with the same seed."""

    def __init__(self, spec, models, seed: int):
        self._models = list(models)
        for m in self._models:
            _check_dims(spec, m)
        self._points = SampleStream(spec, seed)

    def take(self, k: int):
        X = self._points.take(k)
        return X, np.stack([corrupt_labels(m, X)[0] for m in self._models], axis=1)
