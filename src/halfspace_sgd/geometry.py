"""Unit-sphere vector geometry shared by every module.

All halfspaces are homogeneous: h_w(x) = sign(<w, x>) with w on the unit
sphere. The sign convention is sign(0) = +1: halfspace_labels, the label rule
noise.corrupt_labels and the learner's zero-one scoring all read a zero
margin as +1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "project_to_sphere",
    "angle_between",
    "halfspace_labels",
    "unit_vector",
    "rotate2d",
]


def project_to_sphere(v) -> np.ndarray:
    """Return v / ||v||_2.

    Raises ValueError on zero or non-finite input; the result has unit norm
    to within 1e-12.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"expected a vector of dimension >= 2, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot project the zero vector to the sphere")
    return v / norm


def unit_vector(dim: int, axis: int = 0) -> np.ndarray:
    """Standard basis vector e_{axis} in R^dim."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    e = np.zeros(dim)
    e[axis] = 1.0
    return e


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two unit vectors, 2 atan2(||u - v||, ||u + v||).

    Keeps full relative precision at any angle, tiny ones included, where
    arccos of the inner product would read 0 below about 1e-8 rad.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return 2.0 * math.atan2(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


def halfspace_labels(w, X) -> np.ndarray:
    """sign(<w, x>) with sign(0) = +1 for every row x of X; returns float +/-1."""
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != w.shape[0]:
        raise ValueError(f"dimension mismatch: X {X.shape} vs w {w.shape}")
    return np.where(X @ w >= 0.0, 1.0, -1.0)


def rotate2d(v, angle: float) -> np.ndarray:
    """Counterclockwise rotation of a 2D vector by `angle` radians."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValueError("rotate2d is defined for 2D vectors only")
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
