"""Spectral building blocks.

Truncated eigen data of self-adjoint generators, the semigroup acting
diagonally in coefficient space, fractional-power and time-weighted norms,
graded time grids, and the transforms between eigen coefficients and
physical-grid values.

Every type is immutable after construction and every operation is a pure
function of its arguments.
"""

import numpy as np
from dataclasses import dataclass

from .errors import AdmissibilityError, InvalidParameterError

ORTHONORMALITY_TOL = 1e-10


def _frozen_array(values, dtype=float):
    """A read-only, C-contiguous copy."""
    arr = np.array(values, dtype=dtype, copy=True, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Truncated eigenpairs of a self-adjoint generator.

    ``eigenvalues`` is nonincreasing and bounded above by ``alpha``.
    ``basis[i, j]`` holds the j-th eigenfunction evaluated at the i-th
    physical grid point; together with the quadrature ``weights`` the columns
    are discretely orthonormal, which makes ``analyze`` a left inverse of
    ``synthesize``.

    The two transform matrices are built once, here: ``synthesis``, a
    contiguous copy of ``basis.T``, and ``analysis``, the weighted basis
    ``weights[:, None] * basis`` that the orthonormality check forms, so
    each transform is one matrix product.
    """

    eigenvalues: np.ndarray
    alpha: float
    basis: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    label: str

    def __post_init__(self):
        lam = _frozen_array(self.eigenvalues)
        basis = _frozen_array(self.basis)
        points = _frozen_array(self.points)
        weights = _frozen_array(self.weights)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
            raise InvalidParameterError("eigenvalues must be a nonempty finite vector")
        if np.any(np.diff(lam) > 0):
            raise InvalidParameterError("eigenvalues must be nonincreasing")
        if np.any(lam > self.alpha):
            raise InvalidParameterError("eigenvalues must not exceed the upper bound")
        if basis.ndim != 2 or basis.shape[1] != lam.size:
            raise InvalidParameterError("basis must be (grid_size, n_modes)")
        m = basis.shape[0]
        if points.shape != (m,) or weights.shape != (m,):
            raise InvalidParameterError("points/weights must match the grid size")
        if np.any(weights <= 0):
            raise InvalidParameterError("quadrature weights must be positive")
        analysis = _frozen_array(weights[:, None] * basis)
        object.__setattr__(self, "synthesis", _frozen_array(basis.T))
        object.__setattr__(self, "analysis", analysis)
        gram = basis.T @ analysis
        dev = np.max(np.abs(gram - np.eye(lam.size)))
        if dev > ORTHONORMALITY_TOL:
            raise InvalidParameterError(
                f"basis is not discretely orthonormal (deviation {dev:.3e})"
            )

    @property
    def n_modes(self):
        return self.eigenvalues.size

    @property
    def grid_size(self):
        return self.basis.shape[0]


def _midpoint_grid(grid_size):
    x = (np.arange(grid_size) + 0.5) * np.pi / grid_size
    w = np.full(grid_size, np.pi / grid_size)
    return x, w


def build_second_order(n_modes, diffusivity, reaction=0.0, bc="dirichlet",
                       grid_size=None, allow_zero_mode=False):
    """Constant-coefficient second-order operator on (0, pi).

    Dirichlet: lambda_j = -diffusivity*j**2 - reaction with sine modes.
    Neumann:   lambda_j = -diffusivity*(j-1)**2 - reaction with a constant
    first mode and cosine modes.  A Neumann operator with zero reaction has a
    zero eigenvalue, which breaks the usual solvability sufficiency; it is
    rejected unless ``allow_zero_mode`` is set.
    """
    if int(n_modes) != n_modes or n_modes < 1:
        raise InvalidParameterError("n_modes must be a positive integer")
    n_modes = int(n_modes)
    if not diffusivity > 0:
        raise InvalidParameterError("diffusivity must be positive")
    if reaction < 0:
        raise InvalidParameterError("reaction must be nonnegative")
    bc = str(bc).lower()
    if bc not in ("dirichlet", "neumann"):
        raise InvalidParameterError(f"unknown boundary condition {bc!r}")
    if bc == "neumann" and reaction == 0 and not allow_zero_mode:
        raise AdmissibilityError(
            "Neumann with zero reaction has a zero eigenvalue; "
            "pass allow_zero_mode=True to build it anyway"
        )
    if grid_size is None:
        grid_size = max(4 * n_modes, 32)
    grid_size = int(grid_size)
    if grid_size <= n_modes:
        raise InvalidParameterError("grid_size must exceed n_modes")
    x, w = _midpoint_grid(grid_size)
    j = np.arange(1, n_modes + 1)
    if bc == "dirichlet":
        lam = -diffusivity * j.astype(float) ** 2 - reaction
        basis = np.sqrt(2.0 / np.pi) * np.sin(np.outer(x, j))
        label = "dirichlet2"
    else:
        k = j - 1
        lam = -diffusivity * k.astype(float) ** 2 - reaction
        basis = np.sqrt(2.0 / np.pi) * np.cos(np.outer(x, k))
        basis[:, 0] = 1.0 / np.sqrt(np.pi)
        label = "neumann2"
    return SpectralOperator(lam, float(lam[0]), basis, x, w, label)


def build_fourth_order(n_modes, d1, d2=0.0, grid_size=None):
    """Fourth-order operator with pinned ends on (0, pi).

    Sine modes diagonalize it with lambda_j = -d1*j**4 - d2*j**2, so the
    leading eigenvalue is strictly negative.
    """
    if int(n_modes) != n_modes or n_modes < 1:
        raise InvalidParameterError("n_modes must be a positive integer")
    n_modes = int(n_modes)
    if not d1 > 0:
        raise InvalidParameterError("d1 must be positive")
    if d2 < 0:
        raise InvalidParameterError("d2 must be nonnegative")
    if grid_size is None:
        grid_size = max(4 * n_modes, 32)
    grid_size = int(grid_size)
    if grid_size <= n_modes:
        raise InvalidParameterError("grid_size must exceed n_modes")
    x, w = _midpoint_grid(grid_size)
    j = np.arange(1, n_modes + 1).astype(float)
    lam = -d1 * j**4 - d2 * j**2
    basis = np.sqrt(2.0 / np.pi) * np.sin(np.outer(x, j))
    return SpectralOperator(lam, float(lam[0]), basis, x, w, "pinned4")


@dataclass(frozen=True)
class FractionalNormSpec:
    """Parameters of the spectral power norm.

    The norm of a coefficient vector c is
    ``(sum_j (delta0 - lambda_j)**(2*theta) * c_j**2)**0.5``; theta = 0
    recovers the plain Euclidean norm.  ``delta0`` must exceed the operator's
    spectral bound so that every weight is positive.
    """

    theta: float
    delta0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidParameterError("theta must lie in [0, 1]")
        if not np.isfinite(self.delta0):
            raise InvalidParameterError("delta0 must be finite")


def default_shift(op):
    """Shift making all spectral weights positive: 0 for strictly dissipative
    operators, max(0, alpha) + 1 otherwise."""
    if np.any(op.eigenvalues >= 0):
        return max(0.0, op.alpha) + 1.0
    return 0.0


def _check_spec(op, spec):
    if not spec.delta0 > op.alpha:
        raise InvalidParameterError(
            f"invalid norm spec: delta0 = {spec.delta0} must exceed the "
            f"spectral bound alpha = {op.alpha}"
        )


def _row_norms(op, coeffs, spec):
    """Spectral power norm of each row of an (..., n_modes) array.

    The weights (delta0 - lambda_j)**theta are formed once per call.  A
    nonzero row of finite entries whose sum of squares overflows, or falls
    below the normal range, is recomputed as s*||c/s|| with s = max|c_j|;
    every other row keeps the plain result, so a norm is inf only when it
    exceeds the float range and 0 only for a zero row.
    """
    _check_spec(op, spec)
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if spec.theta != 0.0:
            c = (spec.delta0 - op.eigenvalues) ** spec.theta * c
        squares = np.asarray(np.einsum("...j,...j->...", c, c))
        norms = np.asarray(np.sqrt(squares))
        redo = np.isinf(squares) | (squares < np.finfo(float).tiny)
        if redo.any():
            rows = c[redo]
            s = np.abs(rows).max(axis=-1)  # nan when a row holds one
            fixed = s * np.linalg.norm(rows / s[:, None], axis=-1)
            norms[redo] = np.where((s > 0.0) & (s < np.inf), fixed, norms[redo])
    return norms


def fractional_norm(op, coeffs, spec):
    """Spectral power norm of a coefficient vector.

    O(n_modes); the result is inf only when the norm itself exceeds the
    float range, not when the sum of squares does.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (op.n_modes,):
        raise InvalidParameterError("coefficient vector does not match mode count")
    return float(_row_norms(op, c, spec))


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Nodes 0 = t_0 < ... < t_n = T, at least two steps; T is the last
    node."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _frozen_array(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise InvalidParameterError("grid needs at least two steps")
        if nodes[0] != 0.0 or not np.isfinite(nodes[-1]):
            raise InvalidParameterError("grid must run from 0 to a finite final time")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidParameterError("grid nodes must be strictly increasing")

    @property
    def n_steps(self):
        return self.nodes.size - 1

    @property
    def T(self):
        return float(self.nodes[-1])


def make_graded_grid(final_time, n, r=1.0):
    """The grid t_i = T*(i/n)**r, i = 0..n; r = 1 gives the uniform grid."""
    if not final_time > 0:
        raise InvalidParameterError("final time must be positive")
    if int(n) != n or n < 2:
        raise InvalidParameterError("n must be an integer >= 2")
    if r < 1.0:
        raise InvalidParameterError("grading exponent must be >= 1")
    n = int(n)
    s = (np.arange(n + 1) / n) ** float(r)
    nodes = final_time * s
    nodes[-1] = final_time
    return TimeGrid(nodes)


def default_grading(theta):
    """Grading exponent that equidistributes the t**theta-weighted error near
    t = 0; capped at 4."""
    if theta <= 0:
        return 1.0
    return float(min(4.0, max(1.0, 1.0 / theta)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Eigen-coefficient samples of a time-dependent state.

    ``coeffs[i, j]`` is the j-th coefficient at grid node t_i; every node,
    t = 0 included, carries data.
    """

    grid: TimeGrid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _frozen_array(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 2 or coeffs.shape[0] != self.grid.nodes.size:
            raise InvalidParameterError("coeffs must be (n_nodes, n_modes)")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidParameterError("trajectory entries must be finite")


def weighted_sup_norm(op, trajectory, mu, spec):
    """Maximum of t**mu times the fractional norm over the grid nodes.

    The t = 0 node enters only in the unweighted Euclidean case (mu = 0,
    theta = 0); fractional norms are never requested at t = 0.  One
    O(n_nodes * n_modes) array pass; the result is inf only when a node's
    weighted norm exceeds the float range.
    """
    if trajectory.coeffs.shape[1] != op.n_modes:
        raise InvalidParameterError("trajectory does not match the operator")
    nodes = trajectory.grid.nodes
    start = 0 if (mu == 0.0 and spec.theta == 0.0) else 1
    norms = _row_norms(op, trajectory.coeffs[start:], spec)
    return float((nodes[start:] ** mu * norms).max())


def synthesize(op, coeffs):
    """Evaluate sum_j c_j phi_j on the operator's physical grid, for one
    coefficient vector or for each row of a (k, n_modes) stack: one matrix
    product with the operator's ``synthesis`` matrix, O(k N m) for N grid
    points and m modes."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != op.n_modes:
        raise InvalidParameterError("coefficient vector does not match mode count")
    return c @ op.synthesis


def analyze(op, values):
    """Project physical-grid values onto the eigenbasis by weighted inner
    products, for one vector of grid values or for each row of a
    (k, grid_size) stack: one matrix product with the operator's
    ``analysis`` matrix.  Inverts ``synthesize`` up to the discrete
    orthonormality tolerance."""
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != op.grid_size:
        raise InvalidParameterError("grid values do not match the operator grid")
    return v @ op.analysis
