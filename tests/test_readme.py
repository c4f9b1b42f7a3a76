"""The README's library tour runs as written and prints what its comments say."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).parent.parent / "README.md"


def run_tour() -> tuple[dict, dict]:
    """Run the tour's python block; return its names and the value of each
    expression statement, keyed by its source."""
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    names: dict = {}
    values: dict = {}
    for stmt in ast.parse(block.group(1)).body:
        source = ast.unparse(stmt)
        if isinstance(stmt, ast.Expr):
            values[source] = eval(source, names)
        else:
            exec(source, names)
    return names, values


def test_library_tour_matches_its_comments():
    names, values = run_tour()
    g, a, t, s, o, d = (names[k] for k in "gatsod")
    assert (g.rank, g.flag_count) == (3, 96)
    assert values["mx.validate(g)"] == []
    assert (a.order, a.orbit_count) == (48, 2)
    assert t.vertex_count == 2
    assert values["mx.classify(t).label()"] == "2_{0,1}"
    assert values["mx.transitivity_profile(t)"] == frozenset({2})
    assert [",".join(map(str, w)) for w in s.words] == ["0", "1", "2,0,2", "2,1,2"]
    assert (d.rank, d.flag_count) == (3, 48)
    assert np.array_equal(d.adj[1][d.adj[2]], np.arange(48))
    assert values["mx.aut_plus(a, o).order"] == 24 == a.order // 2
    assert len(values["mx.enumerate_stg(4, 4, filters=(mx.is_fully_transitive,))"]) == 20
