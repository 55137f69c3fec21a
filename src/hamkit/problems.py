"""Built-in objectives and sampling targets with certified optima."""
from __future__ import annotations

import math

import numpy as np

from .core import Problem

__all__ = [
    "quadratic",
    "quartic",
    "rosenbrock",
    "standard_gaussian",
    "gaussian_mixture_1d",
    "banana",
]


def quadratic(d, mu=1.0):
    """f(q) = (mu/2) ||q||^2, mu-strongly convex, minimiser 0."""
    return Problem(
        d,
        value=lambda q: 0.5 * mu * float(q.dot(q)),
        grad=lambda q: mu * q,
        value_and_grad=lambda q: (0.5 * mu * float(q.dot(q)), mu * q),
        f_star=0.0,
        q_star=np.zeros(d),
        name=f"quadratic(mu={mu})",
    )


def quartic(d):
    """f(q) = (1/4) ||q||^4, convex but not strongly convex.

    f is inf beyond the float range (||q|| > 1.2e77), where Python's float
    power raises OverflowError instead of returning inf.
    """

    def value(q):
        try:
            return 0.25 * float(q.dot(q)) ** 2
        except OverflowError:
            return math.inf

    def value_and_grad(q):
        r2 = float(q.dot(q))   # formed once for both
        try:
            f = 0.25 * r2 ** 2
        except OverflowError:
            f = math.inf
        return f, r2 * q

    return Problem(
        d,
        value=value,
        grad=lambda q: float(q.dot(q)) * q,
        value_and_grad=value_and_grad,
        f_star=0.0,
        q_star=np.zeros(d),
        name="quartic",
    )


def rosenbrock(a=1.0, b=100.0):
    """Two-dimensional Rosenbrock valley, minimiser (a, a^2)."""

    def value(q):
        return (a - q[0]) ** 2 + b * (q[1] - q[0] ** 2) ** 2

    def grad(q):
        return np.array(
            [
                -2.0 * (a - q[0]) - 4.0 * b * q[0] * (q[1] - q[0] ** 2),
                2.0 * b * (q[1] - q[0] ** 2),
            ]
        )

    return Problem(2, value, grad, f_star=0.0, q_star=np.array([a, a * a]),
                   name="rosenbrock")


def standard_gaussian(d):
    """V(q) = ||q||^2 / 2; the standard normal negative log-density."""
    return Problem(
        d,
        value=lambda q: 0.5 * float(q.dot(q)),
        grad=lambda q: q,
        value_and_grad=lambda q: (0.5 * float(q.dot(q)), q),
        f_star=0.0,
        q_star=np.zeros(d),
        name=f"standard_gaussian({d})",
    )


def gaussian_mixture_1d(w=0.5, m1=-2.0, m2=2.0, s=1.0):
    """Negative log-density of w N(m1, s^2) + (1-w) N(m2, s^2) in d=1."""

    def _parts(q):
        x = q[0]
        a = w * np.exp(-0.5 * ((x - m1) / s) ** 2)
        b = (1.0 - w) * np.exp(-0.5 * ((x - m2) / s) ** 2)
        return x, a, b

    def value(q):
        _, a, b = _parts(q)
        return -np.log(a + b)

    def grad(q):
        x, a, b = _parts(q)
        num = a * (x - m1) + b * (x - m2)
        return np.array([num / (s * s * (a + b))])

    return Problem(1, value, grad, name="gaussian_mixture_1d")


def banana(curvature=0.5, scale=2.0):
    """Curved two-dimensional target: x2 conditioned on a parabola in x1."""

    def value(q):
        shift = q[1] + curvature * (q[0] ** 2 - scale * scale)
        return 0.5 * (q[0] / scale) ** 2 + 0.5 * shift ** 2

    def grad(q):
        shift = q[1] + curvature * (q[0] ** 2 - scale * scale)
        return np.array(
            [q[0] / scale ** 2 + shift * 2.0 * curvature * q[0], shift]
        )

    return Problem(2, value, grad, name="banana")
