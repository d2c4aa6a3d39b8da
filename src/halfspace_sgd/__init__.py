"""Noise-tolerant halfspace learning on the sphere, plus the machinery that
certifies convex surrogates cannot match it: radially symmetric samplers,
a far-flip label adversary, projected SGD on a sigmoid surrogate, holdout
selection, and a deterministic polar-quadrature oracle for population convex
gradients.

The names below are those the README's library tour imports; everything
else is reached through its module (halfspace_sgd.learner, ...).
"""

__version__ = "0.1.0"

from .geometry import unit_vector
from .distributions import gaussian, heavy_tailed, log_concave, z_for_tail_mass
from .losses import convex_surrogate
from .noise import far_flip
from .learner import LearnerConfig, learn
from .oracle import admissible_theta, scan_cone
