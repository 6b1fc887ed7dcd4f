"""confocalfit: regression and PCA through the confocal pencil of quadrics.

A full-rank weighted point cloud in R^k determines a confocal family of
quadrics.  Its members are the envelopes of equal-residual hyperplanes,
its Jacobi coordinates solve point-restricted regression and PCA, and its
tangent lines organize the billiard invariants used as cross-checks.

The linear algebra here works on k x k matrices and O(N k) passes, which
OpenBLAS's worker threads do not speed up: they cost start-up time and
make the run time of a command swing when other processes share the
cores.  So, when numpy is not loaded yet and ``OPENBLAS_NUM_THREADS`` is
unset, importing the package asks OpenBLAS for one thread.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .billiards import (  # noqa: E402 - after the thread setting
    CausticSet,
    Ray,
    caustics_of_flat,
    higher_axial_moments,
    joachimsthal_2d,
    moment_via_caustics,
    reflect,
    trajectory,
)
from .dataset import Dataset, parse_dataset
from .geometry import (
    EigenDecomposition,
    FlatSubspace,
    Hyperplane,
    SymmetricOperator,
    WeightedPointSet,
    axial_moment,
    centroid,
    directional_moment,
    hyperplanar_moment,
    inertia_operator,
    l_planar_moment,
    symmetric_eigen,
)
from .pencil import (
    ConfocalPencil,
    DegenerateHyperplane,
    JacobiCoordinates,
    NoSolution,
    QuadricMember,
    build_pencil,
    envelope_for_moment,
    jacobi_coordinates,
    tangent_hyperplane,
    tangent_moment,
    thread_foci,
    thread_slice,
)
from .regression import (
    FitResult,
    RestrictedPcaResult,
    TestReport,
    best_fit_flat,
    directional_fit,
    f_upper_tail,
    nested_f_test,
    point_hypothesis_test,
    restricted_best_fit_flat,
    restricted_pca,
)
from .regularize import (
    CoefficientVector,
    DualQuadric,
    RegularizedFit,
    constrained_fit,
    dual_quadric,
    moment_of_coefficients,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
