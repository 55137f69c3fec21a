import collections

import pytest

from hamkit import Problem


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) returns a list that grows by one entry per
    call of owner.<name> for the rest of the test."""
    def count(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count


@pytest.fixture
def counting_problem():
    """counting_problem(base, fused=True) returns (problem, calls): a Problem
    with base's value, grad and, when fused, its value_and_grad, and a Counter
    of the calls each of them gets.  Without the fused form the problem runs
    through Problem's adapter."""
    def make(base, fused=True):
        calls = collections.Counter()

        def counted(name, f):
            def call(q):
                calls[name] += 1
                return f(q)
            return call

        prob = Problem(base.dim, counted("value", base.value),
                       counted("grad", base.grad), f_star=base.f_star,
                       value_and_grad=(counted("value_and_grad",
                                               base.value_and_grad)
                                       if fused else None))
        return prob, calls

    return make
