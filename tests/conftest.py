import pytest


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
