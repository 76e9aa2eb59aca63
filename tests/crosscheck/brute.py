"""Brute-force double integrals of the bath phase functionals, and
Clenshaw-Curtis nodes for tabulating their kernels.

Slow by design and independent of `duosc.influence`: nested Simpson and
trapezoid sums over a uniform grid of the time pair.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from duosc.errors import ConfigError


def clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes and weights on [-1, 1] (n+1 points)."""
    if n < 2:
        raise ConfigError("clenshaw_curtis needs n >= 2")
    theta = math.pi * np.arange(n + 1) / n
    x = np.cos(theta)
    w = np.zeros(n + 1)
    ii = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
        v -= np.cos(n * theta[ii]) / (n * n - 1)
    else:
        w[0] = w[n] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
    w[ii] = 2.0 * v / n
    return x, w


def brute_square_form(a: Callable, b: Callable, kernel: Callable,
                      t: float, n: int = 512) -> float:
    """Square integral int_0^t dt' int_0^t dt'' a(t') K(t'-t'') b(t'')
    by nested composite Simpson on a uniform n+1 point grid (n even).

    Because the kernel is even, the triangle integral of a symmetric pair
    is exactly half of this, so it doubles as a higher-order oracle for the
    triangle functionals without giving up the O(n^2) nested structure.
    """
    if n % 2:
        raise ValueError("brute_square_form needs an even n")
    tau = np.linspace(0.0, t, n + 1)
    h = t / n
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= h / 3.0
    A = w * np.asarray(a(tau), dtype=float)
    B = w * np.asarray(b(tau), dtype=float)
    K = np.asarray(kernel(tau[:, None] - tau[None, :]), dtype=float)
    return float(A @ K @ B)


def brute_double_integral(a: Callable, b: Callable, kernel: Callable,
                          t: float, n: int = 512) -> float:
    """Triangle integral int_0^t dt' int_0^t' dt'' a(t') K(t'-t'') b(t'')
    by nested trapezoid on a uniform n+1 point grid.  Slow by design."""
    tau = np.linspace(0.0, t, n + 1)
    A = np.asarray(a(tau), dtype=float)
    B = np.asarray(b(tau), dtype=float)
    K = np.asarray(kernel(tau[:, None] - tau[None, :]), dtype=float)
    h = t / n
    inner = np.empty(n + 1)
    inner[0] = 0.0
    for i in range(1, n + 1):
        row = K[i, :i + 1] * B[:i + 1]
        inner[i] = h * (np.sum(row) - 0.5 * (row[0] + row[-1]))
    outer = A * inner
    return float(h * (np.sum(outer) - 0.5 * (outer[0] + outer[-1])))
