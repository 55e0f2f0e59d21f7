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
from .spectral import Trajectory, analyze, fractional_norm, synthesize


class Nonlinearity:
    """Base class: a map from trajectories to forcing trajectories.

    Every catalogue member is a weighted history of one pointwise payload,
    f(u)(t_i) = sum_k w_ik p(u(t_k)), with p(c) a pointwise map of the
    synthesised state analysed back onto the eigenbasis.  ``eval_node``
    evaluates p at one state, ``history_row`` gives the weights w_ik, and a
    pointwise map has none: f(u)(t_i) = p(u(t_i)).
    """

    #: True when f maps the zero state to zero (all catalogue members do).
    vanishes_at_zero = True

    def eval_node(self, c, op):
        """Payload coefficients p(c) of one coefficient vector."""
        raise NotImplementedError

    def history_row(self, nodes, i):
        """Weights of p(u(t_0)), ..., p(u(t_i)) in f(u)(t_i), shape (i + 1,);
        None for a pointwise map."""
        return None

    def eval_trajectory(self, u, op):
        """Forcing trajectory for a full state trajectory."""
        raise NotImplementedError

    def declared_exponents(self, theta):
        """(gamma, nu) this nonlinearity declares for the weighted-space
        assumptions, given the solution-space exponent theta."""
        raise NotImplementedError


class Zero(Nonlinearity):
    """The zero forcing term."""

    ell = 1.0

    def eval_node(self, c, op):
        return np.zeros(op.n_modes)

    def eval_trajectory(self, u, op):
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


def _node_payload(kappa, ell, c, op, name):
    """The power of one synthesised state, analysed onto the eigenbasis."""
    p = analyze(op, _pointwise_power(kappa, ell, synthesize(op, c)))
    return _finite(p, name)


def _trajectory_payload(kappa, ell, u, op, name):
    """``_node_payload`` of every node of u at once, shape (n_nodes,
    n_modes).  Without data at t = 0 the first row takes the limit from the
    first interior node."""
    W = _pointwise_power(kappa, ell, u.coeffs @ op.basis.T)
    P = (W * op.weights) @ op.basis
    if not u.includes_t0:
        P[0] = P[1]
    return _finite(P, name)


class PowerLaw(Nonlinearity):
    """Pointwise superlinear map kappa*|u|**ell * u on the physical grid."""

    def __init__(self, kappa, ell):
        if not ell > 0:
            raise InvalidParameterError("superlinearity exponent ell must be positive")
        self.kappa = float(kappa)
        self.ell = float(ell)

    def eval_node(self, c, op):
        return _node_payload(self.kappa, self.ell, c, op, "power law")

    def eval_trajectory(self, u, op):
        P = _trajectory_payload(self.kappa, self.ell, u, op, "power law")
        return Trajectory(u.grid, P)

    def declared_exponents(self, theta):
        return 0.0, theta * (self.ell + 1.0)

    def __repr__(self):
        return f"PowerLaw(kappa={self.kappa!r}, ell={self.ell!r})"


class MemoryKernel(Nonlinearity):
    """Forcing with memory: f(u)(t) = int_0^t c*(t-s)**lambda_exp *
    |u(s)|**ell * u(s) ds, evaluated pointwise on the physical grid.

    The payload c*|u|**ell * u is interpolated linearly between nodes and the
    kernel power integrated exactly against it, so a singular kernel
    (lambda_exp in (-1, 0)) costs no accuracy at the endpoint.  Since the
    analysis onto the eigenbasis is linear, the history sum runs over the
    modal payloads of ``eval_node``, weighted by ``history_row``.  In
    ``forward_solve`` a corrector pass costs one synthesise/analyse pair,
    O(N m) for N grid points and m modes; the O(i m) sum over the i earlier
    nodes is formed once per step.
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
        return _node_payload(self.c, self.ell, c, op, "memory kernel")

    def history_row(self, nodes, i):
        """Integrals of (t_i - s)**lambda_exp against the hat function of
        each node 0..i over [0, t_i], exact: segment [t_k, t_{k+1}] adds its
        integral against (t_{k+1} - s)/h_k to node k and against
        (s - t_k)/h_k to node k + 1.
        """
        le = self.lambda_exp
        d = nodes[i] - nodes[:i + 1]      # decreasing to 0
        D1 = d ** (le + 1.0)
        m0 = (D1[:-1] - D1[1:]) / (le + 1.0)
        D2 = D1 * d
        m1 = (D2[:-1] - D2[1:]) / (le + 2.0)
        w_right = (d[:-1] * m0 - m1) / np.diff(nodes[:i + 1])
        row = np.zeros(i + 1)
        row[:-1] = m0 - w_right
        row[1:] += w_right
        return row

    def eval_trajectory(self, u, op):
        nodes = u.grid.nodes
        P = _trajectory_payload(self.c, self.ell, u, op, "memory kernel")
        out = np.zeros_like(P)
        for i in range(1, nodes.size):
            out[i] = self.history_row(nodes, i) @ P[:i + 1]
        return Trajectory(u.grid, out)

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


def check_growth_condition(f, op, spec, sample_count=200,
                           amplitude_range=(0.01, 1.0), seed=0):
    """Sample pairs (v, w) and report the largest observed ratio

        ||f(v) - f(w)||_0 / ((||v||_theta**ell + ||w||_theta**ell) ||v - w||_theta).

    Degenerate pairs are skipped; the check fails only on non-finite ratios.
    """
    if sample_count < 100:
        raise InvalidParameterError("sample_count must be at least 100")
    if isinstance(f, Zero):
        return GrowthCheck(0.0, True, sample_count)
    if not isinstance(f, PowerLaw):
        raise InvalidParameterError(
            "the growth check applies to pointwise nonlinearities"
        )
    rng = np.random.default_rng(seed)
    lo, hi = amplitude_range
    c_hat = 0.0
    ok = True
    used = 0
    for k in range(sample_count):
        v = rng.standard_normal(op.n_modes)
        v *= rng.uniform(lo, hi) / max(np.linalg.norm(v), 1e-300)
        if k % 2 == 0:
            w = rng.standard_normal(op.n_modes)
            w *= rng.uniform(lo, hi) / max(np.linalg.norm(w), 1e-300)
        else:
            # probe the w -> v limit, where the ratio peaks
            w = v + rng.uniform(1e-6, 1e-3) * rng.standard_normal(op.n_modes)
        dv = fractional_norm(op, v - w, spec)
        if dv == 0.0:
            continue
        denom = (fractional_norm(op, v, spec) ** f.ell
                 + fractional_norm(op, w, spec) ** f.ell) * dv
        if denom == 0.0:
            continue
        num = np.linalg.norm(f.eval_node(v, op) - f.eval_node(w, op))
        ratio = num / denom
        if not np.isfinite(ratio):
            ok = False
            continue
        used += 1
        c_hat = max(c_hat, float(ratio))
    return GrowthCheck(c_hat, ok, used)


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
