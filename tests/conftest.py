from __future__ import annotations

import pytest
from hypothesis import settings

from maniplex.constructions import construction
from maniplex.stg import quotient
from maniplex.symmetry import aut_group

settings.register_profile("suite", max_examples=25, derandomize=True, deadline=None)
settings.load_profile("suite")


class CorpusCache:
    """Build each corpus item (and its group data) once per session."""

    def __init__(self):
        self._graphs = {}
        self._auts = {}
        self._stgs = {}

    def graph(self, label):
        if label not in self._graphs:
            self._graphs[label] = construction(label)
        return self._graphs[label]

    def aut(self, label):
        if label not in self._auts:
            self._auts[label] = aut_group(self.graph(label))
        return self._auts[label]

    def stg(self, label):
        if label not in self._stgs:
            self._stgs[label] = quotient(self.aut(label))
        return self._stgs[label]


@pytest.fixture(scope="session")
def corpus():
    return CorpusCache()
