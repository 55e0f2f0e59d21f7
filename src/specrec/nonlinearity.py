"""Nonlinearity catalogue and admissibility checks.

Three forcing terms are supported: the zero map, a pointwise superlinear
power law kappa*|u|**ell * u applied on the physical grid, and a memory
kernel integrating c*(t-s)**lambda_exp * |u(s)|**ell * u(s) over the past.
All of them vanish on the zero state, which is the structural property the
small-data recovery theory rests on.
"""

import numpy as np
from dataclasses import dataclass

from .errors import InvalidParameterError, NumericFailureError
from .spectral import (FractionalNormSpec, Trajectory, _row_norms, analyze,
                       synthesize)


class Nonlinearity:
    """Base class: a map from trajectories to forcing trajectories.

    Every catalogue member is a weighted history of one pointwise payload,
    f(u)(t_i) = sum_k H_ik p(u(t_k)), with p(c) a pointwise map of the
    synthesised state analysed back onto the eigenbasis.  ``eval_node``
    evaluates p at one state or at a (k, n_modes) stack of states in one
    synthesise/analyse pair, O(k N m) for N grid points and m modes;
    ``forward_solve`` calls it once per sweep over a window of up to 64
    steps.  ``history_rows`` gives rows of the weights H_ik, and a
    pointwise map has none: f(u)(t_i) = p(u(t_i)).
    """

    #: True when f maps the zero state to zero (all catalogue members do).
    vanishes_at_zero = True

    def eval_node(self, c, op):
        """Payload coefficients p(c) of one coefficient vector, or of each
        row of a (k, n_modes) stack."""
        raise NotImplementedError

    def history_rows(self, nodes, start, stop):
        """Weights H_ik of p(u(t_k)) in f(u)(t_i) for the rows i = start ..
        stop - 1, shape (stop - start, stop), zero for k > i; None for a
        pointwise map."""
        return None

    def eval_trajectory(self, u, op, history=None):
        """Forcing trajectory for a full state trajectory.  ``history`` is
        ``history_rows`` over the whole grid, for a caller that evaluates
        many trajectories on one grid; it is ignored by a pointwise map."""
        raise NotImplementedError

    def declared_exponents(self, theta):
        """(gamma, nu) this nonlinearity declares for the weighted-space
        assumptions, given the solution-space exponent theta."""
        raise NotImplementedError


class Zero(Nonlinearity):
    """The zero forcing term."""

    ell = 1.0

    def eval_node(self, c, op):
        return np.zeros(np.shape(c))

    def eval_trajectory(self, u, op, history=None):
        return Trajectory.zeros(u.grid, op.n_modes)

    def declared_exponents(self, theta):
        return 0.0, 0.0

    def __repr__(self):
        return "Zero()"


def _pointwise_power(kappa, ell, values):
    return kappa * np.abs(values) ** ell * values


def _finite(payload, name):
    """Return the payload, or raise a typed failure where an overflow left
    it non-finite.  ``forward_solve`` and ``picard_recover`` silence numpy's
    overflow warnings around the payloads, so this check decides there also
    when warnings are errors."""
    if not np.isfinite(payload).all():
        raise NumericFailureError(f"{name} produced non-finite values")
    return payload


def _trajectory_payload(kappa, ell, coeffs, op, name):
    """The power of the synthesised state, analysed onto the eigenbasis, for
    one coefficient vector or every row of a (k, n_modes) stack at once."""
    W = _pointwise_power(kappa, ell, synthesize(op, coeffs))
    return _finite(analyze(op, W), name)


class PowerLaw(Nonlinearity):
    """Pointwise superlinear map kappa*|u|**ell * u on the physical grid."""

    def __init__(self, kappa, ell):
        if not ell > 0:
            raise InvalidParameterError("superlinearity exponent ell must be positive")
        self.kappa = float(kappa)
        self.ell = float(ell)

    def eval_node(self, c, op):
        return _trajectory_payload(self.kappa, self.ell, c, op, "power law")

    def eval_trajectory(self, u, op, history=None):
        P = _trajectory_payload(self.kappa, self.ell, u.coeffs, op, "power law")
        return Trajectory(u.grid, P)

    def declared_exponents(self, theta):
        return 0.0, theta * (self.ell + 1.0)

    def __repr__(self):
        return f"PowerLaw(kappa={self.kappa!r}, ell={self.ell!r})"


# Below this x = h/(t_i - t_k) the history weights are summed as a series:
# the closed form cancels there, erring about 5e-16/x, and 13 terms reach
# x**13 = 1e-17.
_SERIES_X = 0.05
_SERIES_TERMS = 13

# History weights evaluated per array pass, so each temporary stays near
# 128 KB, in cache, whatever the grid size.
_BLOCK_ENTRIES = 2**14


def _horner(coeffs, x):
    """sum_j coeffs[j] * x**j, in place on one work array."""
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _history_block(lambda_exp, nodes, start, stop):
    """``MemoryKernel.history_rows`` for one block of rows, in one pass."""
    a = lambda_exp + 1.0
    h = np.diff(nodes[:stop])
    # d = t_i - t_k >= h below the diagonal; h on and above it, where x = 1
    # keeps every formula finite until those entries are zeroed
    d = np.maximum(nodes[start:stop, None] - nodes[:stop - 1], h)
    x = h / d
    with np.errstate(divide="ignore"):    # log1p(-1) where x = 1
        E_a = -np.expm1(a * np.log1p(-x))
    F_R = np.empty_like(x)
    small = x < _SERIES_X
    j = np.arange(_SERIES_TERMS)
    b = np.cumprod(np.append(1.0, (j[:-1] - lambda_exp) / (j[:-1] + 1.0)))
    F_R[small] = _horner(b / (j + 2.0), x[small])
    xb, Eb = x[~small], E_a[~small]
    F_R[~small] = (Eb / a - (Eb + xb * (1.0 - Eb)) / (a + 1.0)) / (xb * xb)
    # h d**lambda = x d**a, so the segment's weight is d**a E_a / a, of
    # which x d**a F_R goes to its right node
    D = d ** a
    D[:, start:] = np.tril(D[:, start:], -1)
    right = D * x * F_R
    out = np.empty((stop - start, stop))
    np.multiply(D, E_a / a, out=out[:, :-1])
    out[:, :-1] -= right
    out[:, -1] = 0.0
    out[:, 1:] += right
    return out


class MemoryKernel(Nonlinearity):
    """Forcing with memory: f(u)(t) = int_0^t c*(t-s)**lambda_exp *
    |u(s)|**ell * u(s) ds, evaluated pointwise on the physical grid.

    The payload c*|u|**ell * u is interpolated linearly between nodes and the
    kernel power integrated exactly against it, so a singular kernel
    (lambda_exp in (-1, 0)) costs no accuracy at the endpoint.  Since the
    analysis onto the eigenbasis is linear, the history sum runs over the
    modal payloads of ``eval_node``, weighted by ``history_rows``.

    The weights depend only on the grid.  ``eval_trajectory`` is one product
    H @ P of the lower-triangular history operator H, (n + 1)**2 floats for
    n steps (0.13 MB at n = 128, 8.4 MB at n = 1024), with the payloads P;
    ``picard_recover`` builds H once per recovery.  ``forward_solve`` reads
    the rows of one window of up to 64 steps at a time, so its memory stays
    O(n (m + 64)) for m modes; a sweep over the window costs one
    synthesise/analyse pair on the window's stack of states, the sum over
    the nodes before the window, formed once per window, and the window's
    own lower-triangular block of H.
    """

    def __init__(self, c, lambda_exp, ell):
        if not lambda_exp > -1.0:
            raise InvalidParameterError("kernel exponent must exceed -1")
        if not ell > 0:
            raise InvalidParameterError("superlinearity exponent ell must be positive")
        self.c = float(c)
        self.lambda_exp = float(lambda_exp)
        self.ell = float(ell)

    def eval_node(self, c, op):
        return _trajectory_payload(self.c, self.ell, c, op, "memory kernel")

    def history_rows(self, nodes, start, stop):
        """Integrals of (t_i - s)**lambda_exp against the hat function of
        each node k <= i over [0, t_i], exact, for the rows i = start ..
        stop - 1; shape (stop - start, stop), zero for k > i.

        Segment [t_k, t_{k+1}] of row i, with d = t_i - t_k, h = t_{k+1} -
        t_k and x = h/d in (0, 1], adds h d**lambda (F_0 - F_R)(x) to node k
        and h d**lambda F_R(x) to node k + 1, where

            F_0(x) = int_0^1 (1 - x s)**lambda ds = E_a / (a x),
            F_R(x) = int_0^1 s (1 - x s)**lambda ds
                   = (E_a / a - E_{a+1} / (a + 1)) / x**2,

        a = lambda + 1 and E_m = 1 - (1 - x)**m = -expm1(m log1p(-x)), so
        E_{a+1} = E_a + x (1 - E_a).  The form of F_R cancels for small x;
        below x = 0.05 it is the series sum_j b_j x**j / (j + 2) instead,
        with (1 - y)**lambda = sum_j b_j y**j.  No difference of powers of
        t_i - t_k is formed, and every weight is within a few ulp of the
        exact integral at the given nodes.  Cost O((stop - start) stop),
        in passes of at most 2**14 weights.
        """
        out = np.zeros((stop - start, stop))
        rows = max(1, _BLOCK_ENTRIES // stop)
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            out[lo - start:hi - start, :hi] = _history_block(
                self.lambda_exp, nodes, lo, hi)
        return out

    def eval_trajectory(self, u, op, history=None):
        """f(u) on the whole grid as H @ P.  A one-shot call builds H."""
        nodes = u.grid.nodes
        P = _trajectory_payload(self.c, self.ell, u.coeffs, op, "memory kernel")
        if history is None:
            history = self.history_rows(nodes, 0, nodes.size)
        return Trajectory(u.grid, history @ P)

    def declared_exponents(self, theta):
        gap = theta * (self.ell + 1.0) - 1.0 - self.lambda_exp
        nu = 0.0 if gap < 0.0 else 0.5 * (gap + 1.0)
        return 0.0, nu

    def __repr__(self):
        return (f"MemoryKernel(c={self.c!r}, lambda_exp={self.lambda_exp!r}, "
                f"ell={self.ell!r})")


@dataclass(frozen=True)
class GrowthCheck:
    """Empirical superlinear-growth constant: a sampled lower bound on the
    true Lipschitz constant, never a proof."""

    c_hat: float
    ok: bool
    n_samples: int


def _growth_samples(n_modes, sample_count, amplitude_range, seed):
    """The pairs (V[k], W[k]) of ``check_growth_condition``, drawn one by one.

    Even k pairs two independent draws; odd k puts w within 1e-6 to 1e-3
    times ||v|| of v, to probe the w -> v limit at every amplitude.
    """
    rng = np.random.default_rng(seed)
    lo, hi = amplitude_range
    V = np.empty((sample_count, n_modes))
    W = np.empty_like(V)
    for k in range(sample_count):
        v = rng.standard_normal(n_modes)
        v *= rng.uniform(lo, hi) / max(np.linalg.norm(v), 1e-300)
        if k % 2 == 0:
            w = rng.standard_normal(n_modes)
            w *= rng.uniform(lo, hi) / max(np.linalg.norm(w), 1e-300)
        else:
            step = rng.uniform(1e-6, 1e-3) * np.linalg.norm(v)
            z = rng.standard_normal(n_modes)
            w = v + step / max(np.linalg.norm(z), 1e-300) * z
        V[k] = v
        W[k] = w
    return V, W


def check_growth_condition(f, op, spec, sample_count=200,
                           amplitude_range=(0.01, 1.0), seed=0):
    """Sample pairs (v, w) and report the largest observed ratio

        ||f(v) - f(w)||_0 / ((||v||_theta**ell + ||w||_theta**ell) ||v - w||_theta).

    Degenerate pairs are skipped; the check fails only on non-finite ratios.
    Half the pairs are close, ||w - v|| <= 1e-3 ||v||, where the ratio
    peaks.  The pairs are drawn one by one, then every norm and payload is
    formed in one array pass over all samples, O(sample_count * N * n_modes)
    for N grid points.  A norm whose sum of squares overflows is rescaled,
    so large finite amplitudes give finite ratios; a payload that overflows
    raises ``NumericFailureError``.
    """
    if sample_count < 100:
        raise InvalidParameterError("sample_count must be at least 100")
    if isinstance(f, Zero):
        return GrowthCheck(0.0, True, sample_count)
    if not isinstance(f, PowerLaw):
        raise InvalidParameterError(
            "the growth check applies to pointwise nonlinearities"
        )
    V, W = _growth_samples(op.n_modes, sample_count, amplitude_range, seed)
    P = _trajectory_payload(f.kappa, f.ell, np.concatenate([V, W]), op,
                            "power law")
    num = _row_norms(op, P[:sample_count] - P[sample_count:],
                     FractionalNormSpec(0.0, spec.delta0))
    dv = _row_norms(op, V - W, spec)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = (_row_norms(op, V, spec) ** f.ell
                 + _row_norms(op, W, spec) ** f.ell) * dv
        ratio = (num / denom)[(dv != 0.0) & (denom != 0.0)]
    finite = np.isfinite(ratio)
    c_hat = float(np.max(ratio[finite], initial=0.0))
    return GrowthCheck(c_hat, bool(finite.all()), int(finite.sum()))


@dataclass(frozen=True)
class KernelAdmissibility:
    ok: bool
    violated: tuple


def check_kernel_admissibility(lambda_exp, theta, ell, nu):
    """Check the memory-kernel admissibility inequalities and name each
    violated one."""
    violated = []
    if not lambda_exp > -1.0:
        violated.append("lambda_exp > -1")
    if not theta * (ell + 1.0) < 1.0:
        violated.append("theta*(ell+1) < 1")
    if not 1.0 + nu + lambda_exp > theta * (ell + 1.0):
        violated.append("1 + nu + lambda_exp > theta*(ell+1)")
    return KernelAdmissibility(not violated, tuple(violated))
