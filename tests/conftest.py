from collections import Counter

import pytest

from tgs.enumeration import classify, enumerate_structures

CORPUS_SHAPES = ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2))


@pytest.fixture(scope="session")
def corpus():
    """Every axiom-passing structure at the shipped shapes, pre-dedup."""
    return tuple((n, m, s) for n, m in CORPUS_SHAPES
                 for s in enumerate_structures(n, m))


@pytest.fixture(scope="session")
def corpus_reps():
    """Classification representatives keyed by (order, gamma_size)."""
    return {(n, m): tuple(classify(n, m).representatives)
            for n, m in CORPUS_SHAPES}


@pytest.fixture
def law_calls(monkeypatch):
    """count(report) wraps each decide and each scan of the report class's
    _LAWS for this test and returns the Counter of their calls, keyed
    ("decide", law) and ("scan", law)."""
    def count(report):
        calls = Counter()

        def counted(f, key):
            def call(subject):
                calls[key] += 1
                return f(subject)
            return call

        for name, (decide, scan) in list(report._LAWS.items()):
            monkeypatch.setitem(report._LAWS, name, (counted(decide, ("decide", name)),
                                                     counted(scan, ("scan", name))))
        return calls
    return count
