"""Shared helpers for the test suite."""

import numpy as np

from specrec import kernels
from specrec.errors import InvalidParameterError


def ulp_close(a, b, n_ulp=4):
    """True when a and b differ by at most n_ulp units in the last place."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = n_ulp * np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= tol))


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / scale))


def tail_weight(lam, s, T, b):
    """int_s^T b(t) exp((t - s)*lam) dt, zero at s = T: the weight march
    of ``specrec.kernels`` started from a cut at s."""
    edges, coeffs = kernels._pieces(b, T)
    if not 0.0 <= s <= T:
        raise InvalidParameterError("s must lie in [0, T]")
    points = np.concatenate([[s], edges[edges > s]])
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    w, c = kernels._cut(edges, coeffs, points)
    return float(kernels._march(lam, w, c)[0][0, 0])


def exp_weight_integral(lam, T, b):
    """int_0^T b(t) exp(t*lam) dt."""
    return tail_weight(lam, 0.0, T, b)
