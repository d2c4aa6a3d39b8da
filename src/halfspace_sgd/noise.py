"""Label-generation rules: clean halfspace labels and the far-flip adversary.

Both rules are deterministic functions of (w*, x): labels carry no
randomness of their own, so a dataset is fixed by its points.

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

from .geometry import halfspace_labels, project_to_sphere, rotate2d

__all__ = [
    "NoiseModel",
    "LabeledDataset",
    "clean_labels",
    "far_flip",
    "corrupt_labels",
    "make_dataset",
]


@dataclass(frozen=True)
class NoiseModel:
    """Rule mapping (w*, x, clean label) to the observed label."""

    kind: str                      # "clean" | "far_flip"
    w_star: np.ndarray
    theta2: float = 0.0            # far_flip: angle from w* to w_tilde, in (0, pi/4]
    Z: float = math.inf            # far_flip: flip radius
    w_tilde: np.ndarray = field(default=None, repr=False)
    w_perp: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.w_star.shape[0]


def clean_labels(w_star) -> NoiseModel:
    return NoiseModel("clean", project_to_sphere(w_star))


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
    return NoiseModel(
        "far_flip", w_star, theta2=float(theta2), Z=float(Z), w_tilde=w_tilde, w_perp=w_perp
    )


def _memberships(model: NoiseModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    in_s = np.sqrt(np.sum(X * X, axis=1)) >= model.Z
    in_c = (X @ model.w_star) * (X @ model.w_perp) <= 0.0
    return in_c, in_s


def corrupt_labels(model: NoiseModel, X: np.ndarray, clean_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observed labels for the rows of X given their clean labels; returns
    (observed labels, flip mask)."""
    if model.kind == "far_flip":
        in_c, in_s = _memberships(model, X)
        flip = in_s & ~in_c
    else:
        flip = np.zeros(X.shape[0], dtype=bool)
    return np.where(flip, -clean_y, clean_y), flip


@dataclass
class LabeledDataset:
    """Points, observed labels and the mask of corrupted labels."""

    x: np.ndarray          # (n, d)
    y: np.ndarray          # (n,), +/-1 floats
    flipped: np.ndarray    # (n,) bool, True where y != sign(<w*, x>)

    def __post_init__(self):
        if not (len(self.x) == len(self.y) == len(self.flipped)):
            raise ValueError("fields must have equal length")
        if len(self.y) and not np.all(np.abs(self.y) == 1.0):
            raise ValueError("labels must be exactly +/-1")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("points must be finite in every coordinate")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def noise_rate(self) -> float:
        return float(np.mean(self.flipped))


def make_dataset(spec, model: NoiseModel, n: int, seed: int) -> LabeledDataset:
    """Sample n points, label with w*, then corrupt; deterministic per seed."""
    from .distributions import sample

    if spec.dim != model.dim:
        raise ValueError(f"dimension mismatch: spec d={spec.dim}, noise d={model.dim}")
    X = sample(spec, n, seed)
    clean = halfspace_labels(model.w_star, X)
    y, flip = corrupt_labels(model, X, clean)
    return LabeledDataset(X, y, flip)
