import json

import pytest

from maniplex.cli import main
from maniplex.constructions import CORPUS, cuboctahedron, map_from_faces
from maniplex.formats import (ParseError, cycle_string, parse_maniplex_text,
                              parse_map_text, stg_to_dot, write_maniplex_text,
                              write_map_text)
from maniplex.stg import quotient
from maniplex.symmetry import aut_group

import numpy as np


def test_maniplex_round_trip_byte_identical(corpus):
    for label in CORPUS:
        g = corpus.graph(label)
        text = write_maniplex_text(g)
        again = parse_maniplex_text(text)
        assert np.array_equal(again.adj, g.adj), label
        assert write_maniplex_text(again) == text, label


def test_maniplex_parser_tolerates_comments():
    g = parse_maniplex_text("""
# a digon
maniplex rank=2 flags=4
r0: 1 0 3 2   # swap within edges
r1: 3 2 1 0
""")
    assert g.flag_count == 4


def test_maniplex_parser_errors():
    with pytest.raises(ParseError):
        parse_maniplex_text("")
    with pytest.raises(ParseError):
        parse_maniplex_text("maniplex rank=2 flags=4\nr0: 1 0 3 2\n")
    with pytest.raises(ParseError):
        parse_maniplex_text("maniplex rank=1 flags=2\nr1: 1 0\n")
    with pytest.raises(ParseError):
        parse_maniplex_text("maniplex rank=1 flags=2\nr0: 1 0 0\n")
    with pytest.raises(ParseError):
        parse_maniplex_text("maniplex rank=1 flags=2\nr0: 1 9\n")


def test_map_round_trip():
    text = "map vertices=4\n0 1 2\n0 3 1\n1 3 2\n2 3 0\n"
    spec = parse_map_text(text)
    assert write_map_text(spec) == text
    assert map_from_faces(spec).flag_count == 24


def test_cycle_string():
    assert cycle_string(np.array([1, 0, 2])) == "(0 1)"
    assert cycle_string(np.array([0, 1, 2])) == "()"
    assert cycle_string(np.array([1, 2, 0])) == "(0 1 2)"


def test_dot_export_mentions_semi_edges():
    g = cuboctahedron()
    dot = stg_to_dot(quotient(g, aut_group(g)))
    assert "semi" in dot and "style=dashed" in dot
    assert 'label="2"' in dot


def test_digraph_dot_has_directed_class():
    from maniplex.formats import digraph_to_dot
    from maniplex.oriented import orientation, oriented_digraph
    from maniplex.constructions import polygon

    g = polygon(4)
    dot = digraph_to_dot(oriented_digraph(g, orientation(g)))
    assert dot.startswith("digraph")
    assert 'label="t0"' in dot


def test_cli_analyze_text(capsys):
    assert main(["analyze", "cuboctahedron"]) == 0
    out = capsys.readouterr().out
    assert "flags: 96" in out
    assert "aut order: 48" in out
    assert "class: 2_{0,1}" in out
    assert "non-transitive ranks: {2}" in out


def test_cli_analyze_json(capsys):
    assert main(["analyze", "prism:3", "--json", "--generators", "--oriented"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["orbit_count"] == 3
    assert payload["class"] == "3^{1,2}"
    assert payload["generators"]["matches_aut"] is True
    assert payload["oriented"]["orientable"] is True
    assert payload["oriented"]["index"] == 2


def test_cli_analyze_oriented_chiral(capsys):
    assert main(["analyze", "torus44:1,2", "--oriented", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    block = payload["oriented"]
    assert block["chiral_a_la_conway"] is True
    assert block["aut_plus_order"] == 20
    assert block["class"] == "rotary"


def test_cli_analyze_file_and_validation_error(tmp_path, capsys):
    good = tmp_path / "digon.mnpx"
    good.write_text("maniplex rank=2 flags=4\nr0: 1 0 3 2\nr1: 3 2 1 0\n")
    assert main(["analyze", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.mnpx"
    bad.write_text("maniplex rank=1 flags=2\nr0: 0 1\n")
    assert main(["analyze", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "fixed point" in err

    unparsable = tmp_path / "nope.mnpx"
    unparsable.write_text("not a header\n")
    assert main(["analyze", str(unparsable)]) == 2


def test_cli_analyze_map_file(tmp_path, capsys):
    path = tmp_path / "tetra.map"
    path.write_text("map vertices=4\n0 1 2\n0 3 1\n1 3 2\n2 3 0\n")
    assert main(["analyze", str(path)]) == 0
    assert "flags: 24" in capsys.readouterr().out


def test_cli_unknown_input(capsys):
    assert main(["analyze", "widget:9"]) == 2


def test_cli_file_named_like_a_construction(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cube").write_text("maniplex rank=2 flags=4\nr0: 1 0 3 2\nr1: 3 2 1 0\n")
    assert main(["analyze", "cube"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "file" in captured.err and "construction" in captured.err
    assert "./cube" in captured.err
    assert main(["analyze", "./cube"]) == 0
    assert "flags: 4" in capsys.readouterr().out
    assert main(["analyze", "tetrahedron"]) == 0
    assert "flags: 24" in capsys.readouterr().out


def test_cli_oriented_rank_one(capsys):
    # rank-1 input: orientability and group data, no di-graph block
    assert main(["analyze", "simplex:1", "--oriented", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oriented"]["orientable"] is True
    assert payload["oriented"]["aut_plus_order"] == 1
    assert payload["oriented"]["index"] == 2
    assert "class" not in payload["oriented"]


def test_cli_enumerate_counts(capsys):
    assert main(["enumerate", "--colors", "3", "--vertices", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "7"
    assert main(["enumerate", "--colors", "5", "--vertices", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "7"
    assert main(["enumerate", "--colors", "4", "--vertices", "4",
                 "--fully-transitive", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_cli_enumerate_bipartite_filter(capsys):
    # the only 2-vertex type without odd closed walks is the all-edges one
    assert main(["enumerate", "--colors", "3", "--vertices", "2",
                 "--bipartite", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_enumerate_listing_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "census.csv"
    assert main(["enumerate", "--colors", "3", "--vertices", "3",
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3"
    assert "3^{" in out
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 4  # header + 3 graphs
    assert rows[0] == "index,vertices,colours,class,slots"


def test_cli_construct_round_trip(tmp_path, capsys):
    out_path = tmp_path / "hc3.mnpx"
    assert main(["construct", "hypercube:3", "--out", str(out_path)]) == 0
    g = parse_maniplex_text(out_path.read_text())
    assert g.flag_count == 48
    assert main(["construct", "polygon:5"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("maniplex rank=2 flags=10")
    assert main(["construct", "widget:1"]) == 2


def test_cli_dot_output(tmp_path):
    dot_path = tmp_path / "out.dot"
    assert main(["analyze", "cuboctahedron", "--dot", str(dot_path), "--oriented"]) == 0
    assert dot_path.exists()
    assert "graph stg" in dot_path.read_text()
    oriented_path = tmp_path / "out.oriented.dot"
    assert oriented_path.exists()
    assert "digraph" in oriented_path.read_text()
