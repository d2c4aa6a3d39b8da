"""Noise-tolerant halfspace learning on the sphere, plus the machinery that
certifies convex surrogates cannot match it: radially symmetric samplers,
a far-flip label adversary, projected SGD on a sigmoid surrogate, holdout
selection, and a deterministic polar-quadrature oracle for population convex
gradients.
"""

__version__ = "0.1.0"

from .geometry import angle_between, halfspace_labels, project_to_sphere, unit_vector
from .distributions import (
    DistributionSpec,
    gaussian,
    heavy_tailed,
    log_concave,
    radial_tail_mass,
    sample,
    solve_isotropic_params,
    truncated_first_moment,
    truncated_second_moment,
    well_behaved_params,
    z_for_tail_mass,
)
from .losses import ConvexSurrogate, convex_surrogate, sigmoid, surrogate_grad_rows
from .noise import LabeledDataset, NoiseModel, clean_labels, far_flip, make_dataset
from .optimizer import PsgdConfig
from .learner import LearnerConfig, TrialReport, learn
from .oracle import (
    ConeScanReport,
    QuadratureSpec,
    admissible_theta,
    convex_population_grad,
    predicted_floor,
    scan_cone,
)
from .baselines import full_batch_minimize
