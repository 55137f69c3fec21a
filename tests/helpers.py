"""Helpers shared by the test modules."""
import numpy as np

from hamkit import Problem


def constant_problem(d, c=0.0):
    """f(q) = c in d dimensions: no force, so every flight is a free drift."""
    return Problem(d, value=lambda q: c, grad=lambda q: np.zeros_like(q),
                   f_star=c, q_star=np.zeros(d), name="constant")
