"""`maniplex analyze` and the census output, pinned byte for byte.

The digests in ``golden_analyze.json`` are sha256 sums of stdout for the
JSON and the text report of every corpus label, of the benchmark's
larger labels and `hypercube:6`, and of two seeded 2,400-flag random
maps, whose symmetry type graphs have 1,200 and 2,400 vertices, of the
files that `--oriented --dot` writes for each of those inputs, and of
`scripts/corpus_table.py`'s stdout.  Those in ``golden_census.json`` are sha256 sums of the
stdout and the CSV file of `maniplex enumerate` at the census grid
points, of `scripts/run_census.py`'s stdout, and of the ordered
oriented canonical codes of the three-vertex oriented census.  A change
that alters any of them fails here; regenerate the files only for a
deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
import runpy
import tempfile
import warnings
from pathlib import Path

from maniplex.cli import main
from maniplex.constructions import CORPUS
from maniplex.formats import write_maniplex_text
from oracles import enumerate_oriented_stg3, oriented_canonical_code, random_map

GOLDEN = Path(__file__).with_name("golden_analyze.json")
GOLDEN_CENSUS = Path(__file__).with_name("golden_census.json")
SCRIPTS = Path(__file__).parent.parent / "scripts"
RUN_CENSUS = SCRIPTS / "run_census.py"
CORPUS_TABLE = SCRIPTS / "corpus_table.py"
LABELS = CORPUS + ("prism:200", "pyramid:200", "torus44:20,7", "simplex:6", "torus44:20,0",
                   "torus44:12,12", "hypercube:6")
FORMS = {"json": ["--json"], "text": []}
# name -> (seed, base edges, sheets, orientable); 2,400 flags each
RANDOM_MAPS = {"map-o1": (7, 600, 1, True), "map-n2": (8, 300, 2, False)}
GRID = ((3, 5), (4, 5), (5, 4), (6, 4), (5, 5), (3, 6), (4, 6), (5, 6), (3, 7),
        (4, 1), (5, 2), (7, 3), (8, 4))
FILTERS = ("--bipartite", "--fully-transitive")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(run) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run()
    assert code == 0, code
    return buffer.getvalue().encode()


def dot_digests(name: str, source: str, workdir: Path) -> dict[str, str]:
    """The sha256 of the file `analyze SOURCE --oriented --dot PATH` writes,
    and of its `.oriented.dot` twin where one is written."""
    dot, twin = workdir / "out.dot", workdir / "out.oriented.dot"
    for path in (dot, twin):
        path.unlink(missing_ok=True)
    _stdout(lambda: main(["analyze", source, "--oriented", "--dot", str(dot)]))
    out = {f"{name} dot": _sha(dot.read_bytes())}
    if twin.exists():
        out[f"{name} oriented dot"] = _sha(twin.read_bytes())
    return out


def analyze_digests(workdir: Path) -> dict[str, str]:
    out = {}
    for label in LABELS:
        for form, flags in FORMS.items():
            argv = ["analyze", label, *flags, "--generators", "--oriented"]
            out[f"{label} {form}"] = _sha(_stdout(lambda: main(argv)))
        out |= dot_digests(label, label, workdir)
    for name, (seed, edges, sheets, orientable) in RANDOM_MAPS.items():
        path = workdir / f"{name}.maniplex"
        path.write_text(write_maniplex_text(
            random_map(random.Random(seed), edges, sheets, orientable)))
        for form, flags in FORMS.items():
            argv = ["analyze", str(path), *flags, "--oriented"]
            out[f"{name} {form}"] = _sha(_stdout(lambda: main(argv)))
        out |= dot_digests(name, str(path), workdir)
    corpus_table = runpy.run_path(str(CORPUS_TABLE))["main"]
    out["corpus_table stdout"] = _sha(_stdout(lambda: corpus_table() or 0))
    return out


def census_digests(workdir: Path) -> dict[str, str]:
    runs = [(f"{n},{k}", ["--colors", str(n), "--vertices", str(k)]) for n, k in GRID]
    runs += [(f"4,4 {flag}", ["--colors", "4", "--vertices", "4", flag]) for flag in FILTERS]
    out = {}
    csv_path = workdir / "enumerate.csv"
    for key, args in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stdout = _stdout(lambda: main(["enumerate", *args, "--csv", str(csv_path)]))
        out[f"enumerate {key} stdout"] = _sha(stdout)
        out[f"enumerate {key} csv"] = _sha(csv_path.read_bytes())
    out["run_census stdout"] = _sha(_stdout(runpy.run_path(str(RUN_CENSUS))["main"]))
    for n in range(4, 11):
        codes = [oriented_canonical_code(ot) for ot in enumerate_oriented_stg3(n)]
        out[f"oriented codes {n}"] = _sha("\n".join(c.hex() for c in codes).encode())
    return out


def _assert_same(expected: dict[str, str], actual: dict[str, str]) -> None:
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed


def test_analyze_output_is_byte_identical(tmp_path):
    _assert_same(json.loads(GOLDEN.read_text()), analyze_digests(tmp_path))


def test_census_output_is_byte_identical(tmp_path):
    _assert_same(json.loads(GOLDEN_CENSUS.read_text()), census_digests(tmp_path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        GOLDEN.write_text(json.dumps(analyze_digests(Path(workdir)), indent=1) + "\n")
        GOLDEN_CENSUS.write_text(json.dumps(census_digests(Path(workdir)), indent=1) + "\n")
