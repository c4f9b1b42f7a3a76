import itertools
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from maniplex import cli, formats
from maniplex.cli import build_parser, main
from maniplex.constructions import CORPUS, cuboctahedron, map_from_faces
from maniplex.formats import (ParseError, cycle_string, parse_maniplex_text,
                              parse_map_text, stg_to_dot, write_maniplex_text)
from maniplex.stg import quotient
from maniplex.symmetry import aut_group

import numpy as np

from oracles import random_map, write_map_text


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
    dot = stg_to_dot(quotient(aut_group(g)))
    assert "semi" in dot and "style=dashed" in dot
    assert 'label="2"' in dot


def test_digraph_dot_has_directed_class():
    from maniplex.oriented import orientation, oriented_digraph
    from maniplex.constructions import polygon
    from oracles import digraph_to_dot

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

    overlapping = tmp_path / "overlap.mnpx"
    overlapping.write_text("maniplex rank=2 flags=2\nr0: 1 0\nr1: 1 0\n")
    assert main(["analyze", str(overlapping)]) == 3
    assert capsys.readouterr().err == "invalid: overlapping matchings (0,1), flag 0\n"

    unparsable = tmp_path / "nope.mnpx"
    unparsable.write_text("not a header\n")
    assert main(["analyze", str(unparsable)]) == 2


def test_cli_analyze_map_file(tmp_path, capsys):
    path = tmp_path / "tetra.map"
    path.write_text("map vertices=4\n0 1 2\n0 3 1\n1 3 2\n2 3 0\n")
    assert main(["analyze", str(path)]) == 0
    assert "flags: 24" in capsys.readouterr().out


@pytest.mark.parametrize("name, text", [
    ("tetra.map", "map vertices=4\n0 1 2\n0 3 1\n1 3 2\n2 3 0\n"),
    ("digon.mnpx", "maniplex rank=2 flags=4\nr0: 1 0 3 2\nr1: 3 2 1 0\n"),
], ids=["map", "mnpx"])
def test_cli_reads_a_file_with_a_byte_order_mark(tmp_path, capsys, name, text):
    # an editor may save UTF-8 with a BOM; the report is the one without
    reports = []
    for folder, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / folder / name
        path.parent.mkdir()
        path.write_bytes(prefix + text.encode())
        assert main(["analyze", str(path), "--json", "--oriented"]) == 0, folder
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("image", ["4294967296", "9" * 19, "9" * 25])
def test_cli_oversized_flag_index_exits_2(tmp_path, capsys, image):
    path = tmp_path / "big.mnpx"
    path.write_text(f"maniplex rank=1 flags=2\nr0: 1 {image}\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot parse {path}: flag image out of range\n"


@pytest.mark.parametrize("header,field", [
    ("maniplex rank=-1 flags=4", "rank=-1"), ("maniplex rank=0 flags=4", "rank=0"),
    ("maniplex rank=1 flags=-2", "flags=-2"), ("maniplex rank=1 flags=0", "flags=0"),
    ("map vertices=-3", "vertices=-3"), ("map vertices=0", "vertices=0")])
def test_cli_header_counts_below_one_exit_2_naming_the_field(tmp_path, capsys, header, field):
    # each once gave a message about colour lines, flags or vertex ranges
    path = tmp_path / "input.txt"
    path.write_text(f"{header}\n0 1 2\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: cannot parse {path}: header field '{field}' is below 1\n"


@pytest.mark.parametrize("text,message", [
    ("maniplex rank2 flags=4\n", "bad header field 'rank2', expected rank=<int>"),
    ("maniplex rank=two flags=4\n", "bad integer in header: 'two'"),
    ("maniplex rank=1 flags=1\nr0: 0\n", "at least two flags are required"),
    ("map vertices=3\n0 1 x\n", "bad vertex index in face line '0 1 x'"),
    ("map vertices=3\n", "map file lists no faces")],
    ids=["header-field", "header-integer", "one-flag", "face-index", "no-faces"])
def test_cli_malformed_file_exits_2_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse {path}: {message}\n"


def test_map_parser_refuses_a_file_with_no_header():
    # the CLI reads a file as a map only when its first word is "map"
    with pytest.raises(ParseError, match="empty map file"):
        parse_map_text("# faces to come\n")


def test_cli_huge_vertex_count_exits_2_in_little_memory(tmp_path):
    # a check that built the set of all vertex ids would run out of the
    # 1.5 GB of address space the child gets, with a traceback
    path = tmp_path / "huge.map"
    path.write_text("map vertices=1000000000000\n0 1 2\n0 2 1\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))

    run = subprocess.run([sys.executable, "-m", "maniplex.cli", "analyze", str(path)],
                         capture_output=True, text=True, timeout=60, preexec_fn=limit,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                              "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"error: cannot parse {path}: some vertices appear in no face\n"


def run_with_stdout(stdout, *argv):
    """The CLI in a child process writing to the file descriptor ``stdout``."""
    return subprocess.run([sys.executable, "-m", "maniplex.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})


@pytest.mark.parametrize("argv", [("analyze", "prism:5", "--json"), ("construct", "prism:5"),
                                  ("enumerate", "--colors", "3", "--vertices", "2")])
def test_cli_stdout_closed_by_its_reader_exits_2(argv):
    read, write = os.pipe()
    os.close(read)  # the reader has gone before the first write
    try:
        run = run_with_stdout(write, *argv)
    finally:
        os.close(write)
    assert run.returncode == 2
    assert run.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_stdout_on_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        run = run_with_stdout(full, "analyze", "prism:5", "--json")
    assert run.returncode == 2
    assert run.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("label,flags", [("simplex:12", "6,227,020,800"),
                                         ("hypercube:10", "3,715,891,200"),
                                         ("torus44:20000,0", "3,200,000,000")])
def test_cli_labels_beyond_int32_exit_2_before_building(label, flags):
    # built, each would need gigabytes of tables; the child gets 1 GB
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1000 << 20, 1000 << 20))

    run = subprocess.run([sys.executable, "-m", "maniplex.cli", "analyze", label],
                         capture_output=True, text=True, timeout=60, preexec_fn=limit,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                              "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"error: cannot interpret input {label!r}: {flags} flags exceed "
                          "the limit of 2,147,483,647 (flag tables are int32)\n")


def test_cli_unknown_input(capsys):
    assert main(["analyze", "widget:9"]) == 2


@pytest.mark.parametrize("label", ["x" * 300, "simplex:" + "9" * 300], ids=["name", "simplex"])
def test_cli_label_too_long_for_a_file_name_exits_2(capsys, label):
    # looking such a name up as a file raises OSError (name too long)
    assert main(["analyze", label]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot interpret input {label!r}: ")


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


def test_cli_directory_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "somedir").mkdir()
    assert main(["analyze", "somedir"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read somedir")
    assert "Traceback" not in captured.err


def test_cli_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}")
    assert "Traceback" not in captured.err


def test_cli_out_of_memory_exits_5(monkeypatch, capsys):
    def too_large(g):
        raise MemoryError("Unable to allocate 709. MiB")

    monkeypatch.setattr(cli, "aut_group", too_large)
    assert main(["analyze", "cube"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not enough memory: Unable to allocate 709. MiB\n"


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


def test_cli_enumerate_empty_census_writes_the_header_only(tmp_path, capsys):
    csv_path = tmp_path / "census.csv"
    assert main(["enumerate", "--colors", "1", "--vertices", "3", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == "0\n"
    assert csv_path.read_bytes() == b"index,vertices,colours,class,slots\r\n"


def test_parser_is_built_once_and_calls_do_not_leak(tmp_path, monkeypatch, capsys):
    # successive calls in one process print what each prints when run first
    csv_path = tmp_path / "census.csv"
    runs = [["analyze", "prism:3", "--json"], ["analyze", "prism:3"],
            ["enumerate", "--colors", "4", "--vertices", "3"],
            ["enumerate", "--colors", "4", "--vertices", "3", "--csv", str(csv_path)],
            ["enumerate", "--colors", "4", "--vertices", "3"]]

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out, csv_path.read_text() if csv_path.exists() else None

    first = []
    for argv in runs:
        build_parser.cache_clear()
        csv_path.unlink(missing_ok=True)
        first.append(run(argv))
    assert build_parser() is build_parser()
    assert [run(argv)[0] for argv in runs] == [out for out, _ in first]
    assert csv_path.read_text() == first[3][1]
    assert first[0][0] != first[1][0] and first[2][0] == first[4][0]
    # the cached parser holds no command function: a rebound one is called
    monkeypatch.setattr(cli, "cmd_construct", lambda args: 7)
    assert main(["construct", "cube"]) == 7


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


@pytest.mark.parametrize("argv", [
    ["analyze", "cube", "--dot", "{missing}/x.dot"],
    ["analyze", "cube", "--dot", "{tmp}"],
    ["construct", "cube", "--out", "{missing}/x"],
    ["enumerate", "--colors", "3", "--vertices", "2", "--csv", "{missing}/x.csv"],
])
def test_cli_write_error_exits_2(tmp_path, capsys, argv):
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {argv[-1]}")
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [[], ["--count-only"]])
def test_cli_enumerate_failed_csv_write_prints_nothing(tmp_path, capsys, extra):
    # the CSV path is a directory: no count and no listing before the error
    assert main(["enumerate", "--colors", "1", "--vertices", "1", *extra,
                 "--csv", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {tmp_path}")


def _analyze_payloads(monkeypatch, capsys, argvs) -> list[dict]:
    """The payload each ``analyze --json`` run hands to ``json_report``."""
    seen = []
    real = formats.json_report
    monkeypatch.setattr(formats, "json_report", lambda p: seen.append(p) or real(p))
    for argv in argvs:
        assert main(["analyze", *argv, "--json"]) == 0, argv
    monkeypatch.undo()
    capsys.readouterr()
    return seen


def test_json_report_equals_json_dumps(tmp_path, monkeypatch, capsys):
    argvs = [[label, *gens, *orient] for label, gens, orient in itertools.product(
        CORPUS, ([], ["--generators"]), ([], ["--oriented"]))]
    for seed, (sheets, orientable) in enumerate(itertools.product((1, 2), (True, False))):
        path = tmp_path / f"map{seed}.maniplex"
        path.write_text(write_maniplex_text(
            random_map(random.Random(seed), 60 // sheets, sheets, orientable)))
        argvs.append([str(path), "--oriented"])
    payloads = _analyze_payloads(monkeypatch, capsys, argvs)
    payloads += [
        {"list": [], "dict": {}, "tuple": ()},
        {"column": [[3], [-1], [0]], "empty rows": [(), ()], "one row": [(1, 2, 3)]},
        {"ragged": [[1, 2], [3]], "bools": [[1, True], [0, False]], "scalars": [[1], 2]},
        {"ints": [3, -1, 0], "int and bool": [1, True], "strings": [["a"], ["b"]]},
        {"a": {"b": {"c": [1, {"d": [[None, 1.5]]}], "e": {}}}},
        {"label": "2_∅", "2⁺_{0}": ["∅", 'quote " and \\'], "float rows": [[1.0, 2.0]]},
    ]
    for p in payloads:
        assert formats.json_report(p) == json.dumps({"schema": 1, **p}, indent=2), p


def _fail(*args, **kwargs):
    raise AssertionError("renderer of the other form was called")


def test_analyze_json_renders_no_text(monkeypatch, capsys):
    for name in ("text_report", "stg_table", "oriented_stg_table"):
        monkeypatch.setattr(formats, name, _fail)
    assert main(["analyze", "cuboctahedron", "--json", "--generators", "--oriented"]) == 0
    assert json.loads(capsys.readouterr().out)["orbit_count"] == 2


def test_analyze_text_encodes_no_json(monkeypatch, capsys):
    monkeypatch.setattr(formats, "json_report", _fail)
    monkeypatch.setattr(json, "dumps", _fail)
    assert main(["analyze", "cuboctahedron", "--generators", "--oriented"]) == 0
    assert "flag orbits: 2" in capsys.readouterr().out


MASKED_ARRAY_STEPS = r"""
import contextlib, io, sys
from maniplex.cli import main
from maniplex.constructions import construction
from maniplex.enumeration import verify_census
from maniplex.stg import quotient
from maniplex.symmetry import aut_group
from oracles import verify_face_projection

steps = {
    "analyze": lambda: main(["analyze", "prism:5", "--json", "--generators", "--oriented"]),
    "enumerate": lambda: main(["enumerate", "--colors", "4", "--vertices", "4", "--csv",
                               sys.argv[1]]),
    "verify_census": verify_census,
    "verify_face_projection": lambda: verify_face_projection(
        a := aut_group(construction("prism:5")), quotient(a), 1, 0),
}
for name, step in steps.items():
    with contextlib.redirect_stdout(io.StringIO()):
        step()
    print(name, "numpy.ma" in sys.modules)
"""


def test_no_path_imports_numpy_masked_arrays(tmp_path):
    # numpy 2.4's plain np.unique imports numpy.ma, about 1.7 MB of peak
    # memory that no path of the program needs; each step runs in turn in
    # a fresh process and reports whether numpy.ma has been imported yet
    run = subprocess.run([sys.executable, "-c", MASKED_ARRAY_STEPS, str(tmp_path / "out.csv")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                              "PYTHONPATH": os.pathsep.join([
                                  str(Path(cli.__file__).resolve().parents[1]),
                                  str(Path(__file__).resolve().parent)])})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:-1] == [f"{name} False" for name in
                                           ("analyze", "enumerate", "verify_census",
                                            "verify_face_projection")]
