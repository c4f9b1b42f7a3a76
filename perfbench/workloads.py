"""The three workloads: their inputs, their timed operations and the
checks run on each operation's output, outside the timer."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


class CheckFailed(AssertionError):
    """An output disagrees with a reference computed apart from the program."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation.  ``run`` is timed and returns the program's
    output; ``parse`` turns it into the data ``check`` inspects, raising
    CheckFailed when it is wrong.  ``kind`` keys the corruptions the
    self-test feeds to the checker."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    kind: str
    parse: Callable[[object], object] = json.loads
    adj: np.ndarray | None = None


def run_cli(cli, argv: list[str]) -> str:
    """``maniplex <argv>`` in this process; stdout, or an error on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"maniplex {' '.join(argv)} exited with {code}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# analyze checks


def check_generators(report: dict, adj: np.ndarray, aut_order: int) -> None:
    """Every reported generator commutes with every r_i, and the orbit of
    flag 0 under them has |Aut| flags (Aut acts freely)."""
    gens = report["generators"]
    perms = [oracle.parse_cycles(text, adj.shape[1]) for text in gens["permutations"]]
    for text, perm in zip(gens["permutations"], perms):
        require(oracle.commutes_with_graph(perm, adj),
                f"generator {text[:40]} is not an automorphism")
    require(oracle.orbit_size(perms) == aut_order,
            f"generators reach {oracle.orbit_size(perms)} flags, expected {aut_order}")
    require(gens["closure_order"] == aut_order and gens["matches_aut"],
            "generator closure does not match |Aut|")


def check_counts(report: dict, flags: int) -> None:
    require(report["flags"] == flags, f"flags {report['flags']}, expected {flags}")
    require(report["flags"] == report["aut_order"] * report["orbit_count"],
            "flags != aut_order * orbit_count")
    stg = report["stg"]
    require(stg["vertices"] == report["orbit_count"] == len(stg["slots"]),
            "STG vertex count differs from the orbit count")
    problems = oracle.stg_problems(stg["slots"])
    require(not problems, f"STG fails the reference check: {problems[:3]}")


def check_regular(label: str, adj: np.ndarray) -> Callable[[dict], None]:
    expected = oracle.closed_form_aut_order(label)

    def check(report: dict) -> None:
        require(report["aut_order"] == expected,
                f"{label}: |Aut| {report['aut_order']}, closed form {expected}")
        check_counts(report, adj.shape[1])
        require(report["class"] == "regular", f"{label}: class {report['class']}")
        check_generators(report, adj, expected)
        orient = report["oriented"]
        require(orient["orientable"] and orient["aut_plus_order"] * 2 == expected
                and not orient["chiral_a_la_conway"] and orient["class"] == "rotary",
                f"{label}: oriented block {orient}")
    return check


def check_low_symmetry(label: str, adj: np.ndarray) -> Callable[[dict], None]:
    """prism:l, pyramid:l and the chiral torus, by their known shapes."""
    name, _, arg = label.partition(":")
    flags = adj.shape[1]
    if name == "prism":
        aut, orbits, cls = 4 * int(arg), 3, "3^{1,2}"
    elif name == "pyramid":
        aut, orbits, cls = 2 * int(arg), 4, None
    else:
        aut, orbits, cls = flags // 2, 2, "2_∅"

    def check(report: dict) -> None:
        require(report["aut_order"] == aut and report["orbit_count"] == orbits,
                f"{label}: |Aut| {report['aut_order']}, {report['orbit_count']} orbits; "
                f"expected {aut}, {orbits}")
        require(cls is None or report["class"] == cls, f"{label}: class {report['class']}")
        check_counts(report, flags)
        check_generators(report, adj, aut)
        if name == "torus44":
            orient = report["oriented"]
            require(orient["chiral_a_la_conway"] and orient["aut_plus_order"] == aut,
                    f"{label}: expected chiral with Aut+ = Aut, got {orient}")
    return check


# ---------------------------------------------------------------------------
# random maps


def random_map(rng: random.Random, base_edges: int, sheets: int, orientable: bool) -> np.ndarray:
    """Flag graph of a random rank-3 map with a free Z_sheets symmetry.

    Flag (c, j, a, b) sits on sheet c, edge j, end a, side b; r0 flips a
    and r2 flips b.  r1 pairs flags of different base edges at random,
    black with white (a + b even with odd) when ``orientable``, and lifts
    each pair across the sheets with a random voltage, so the shift of
    sheets is an automorphism and nothing else is, almost surely.
    """
    base = 4 * base_edges
    count = base * sheets
    ids = np.arange(count)
    sheet, beta = np.divmod(ids, base)
    r0 = sheet * base + (beta ^ 2)
    r2 = sheet * base + (beta ^ 1)
    while True:
        if orientable:
            black = [f for f in range(base) if bin(f & 3).count("1") % 2 == 0]
            white = [f for f in range(base) if bin(f & 3).count("1") % 2 == 1]
            rng.shuffle(white)
            pairs = list(zip(black, white))
        else:
            order = list(range(base))
            rng.shuffle(order)
            pairs = list(zip(order[::2], order[1::2]))
        if any(p // 4 == q // 4 for p, q in pairs):
            continue
        r1 = np.empty(count, dtype=np.int64)
        for p, q in pairs:
            delta = rng.randrange(sheets)
            for c in range(sheets):
                r1[c * base + p] = ((c + delta) % sheets) * base + q
                r1[((c + delta) % sheets) * base + q] = c * base + p
        adj = np.stack([r0, r1, r2])
        if oracle.flag_graph_problems(adj) or oracle.bipartite(adj) != orientable:
            continue
        return adj


def relabel(adj: np.ndarray, rng: random.Random) -> np.ndarray:
    """The same flag graph under a random renumbering of its flags."""
    perm = np.array(rng.sample(range(adj.shape[1]), adj.shape[1]))
    out = np.empty_like(adj)
    out[:, perm] = perm[adj]
    return out


def flag_graph_text(adj: np.ndarray) -> str:
    """The flag graph in maniplex's text format."""
    lines = [f"maniplex rank={adj.shape[0]} flags={adj.shape[1]}"]
    lines += [f"r{i}: " + " ".join(map(str, row.tolist())) for i, row in enumerate(adj)]
    return "\n".join(lines) + "\n"


def check_random_map(adj: np.ndarray, sheets: int, orientable: bool,
                     twin: dict) -> Callable[[dict], None]:
    """A random map and its relabelled twin must agree on order, orbit
    count and class; ``twin`` holds whichever of the two was checked first."""

    def check(report: dict) -> None:
        check_counts(report, adj.shape[1])
        require(report["aut_order"] % sheets == 0,
                f"|Aut| {report['aut_order']} misses the Z_{sheets} sheet shift")
        require(report["oriented"]["orientable"] == orientable,
                f"orientable {report['oriented']['orientable']}, built {orientable}")
        key = (report["aut_order"], report["orbit_count"], report["class"])
        seen = twin.setdefault("key", key)
        require(seen == key, f"relabelled copies disagree: {seen} vs {key}")
    return check


# ---------------------------------------------------------------------------
# workloads


def analyze_argv(target: str, generators: bool = True) -> list[str]:
    return ["analyze", target, "--json", "--oriented"] + (["--generators"] if generators else [])


def analyze_sym(mx, inputs: None, workdir: Path) -> list[Op]:
    """Large-group constructions: every trial extension succeeds."""
    ops = []
    for label in ["simplex:6", "hypercube:5", "torus44:20,0", "torus44:16,0",
                  "torus44:12,12", "torus44:9,9"]:
        adj = np.asarray(mx.construction(label).adj, dtype=np.int64)
        ops.append(Op(label, lambda argv=analyze_argv(label): run_cli(mx.cli, argv),
                      check_regular(label, adj), "analyze", adj=adj))
    return ops


@dataclass
class MapInput:
    """A random map and a relabelling of it, with the text of their files."""

    stem: str
    sheets: int
    orientable: bool
    tables: tuple[np.ndarray, np.ndarray]
    texts: tuple[str, str]


def random_map_inputs(seed: int) -> list[MapInput]:
    """Six random maps of 2,400 flags whose Aut is (almost surely) the
    sheet shift: trivial, Z_2 or Z_3, orientable or not."""
    rng = random.Random(seed)
    inputs = []
    for (base_edges, sheets), orientable in itertools.product(
            [(600, 1), (300, 2), (200, 3)], [True, False]):
        adj = random_map(rng, base_edges, sheets, orientable)
        tables = (adj, relabel(adj, rng))
        inputs.append(MapInput(f"map-{'o' if orientable else 'n'}{sheets}", sheets, orientable,
                               tables, tuple(flag_graph_text(t) for t in tables)))
    return inputs


def analyze_lowsym(mx, maps: list[MapInput], workdir: Path) -> list[Op]:
    """Deep-BFS constructions, then the random maps, written to files."""
    ops = []
    for label in ["prism:200", "pyramid:200", "torus44:20,7"]:
        adj = np.asarray(mx.construction(label).adj, dtype=np.int64)
        ops.append(Op(label, lambda argv=analyze_argv(label): run_cli(mx.cli, argv),
                      check_low_symmetry(label, adj), "analyze", adj=adj))
    for m in maps:
        twin: dict = {}
        for tag, table, text in zip(("", "-relabelled"), m.tables, m.texts):
            path = workdir / f"{m.stem}{tag}.mnpx"
            path.write_text(text)
            ops.append(Op(path.stem, lambda argv=analyze_argv(str(path), False):
                          run_cli(mx.cli, argv),
                          check_random_map(table, m.sheets, m.orientable, twin), "random",
                          adj=table))
    return ops


def vet_inputs(ops: list[Op]) -> None:
    """Every input passes the benchmark's own maniplex check."""
    for op in ops:
        if op.adj is not None:
            require(not oracle.flag_graph_problems(op.adj), f"{op.name} is not a maniplex")


def paper_line(check) -> str | None:
    """The entry of the paper's table a verify_census() line names, if any."""
    stem, _, tail = check.name.rpartition(", ")
    return stem if stem in oracle.PAPER_COUNTS and tail.endswith(" colours") else None


def check_census_report(checks) -> None:
    """verify_census() against the paper's counts kept in oracle.py."""
    covered = set()
    for check in checks:
        require(check.passed, f"census check failed: {check}")
        stem = paper_line(check)
        if stem is not None:
            expected = oracle.PAPER_COUNTS[stem](int(check.name.rpartition(", ")[2].split()[0]))
            require(expected is not None and check.actual == expected,
                    f"{check.name}: got {check.actual}, paper {expected}")
            covered.add(stem)
    require(covered == set(oracle.PAPER_COUNTS),
            f"paper counts not checked: {set(oracle.PAPER_COUNTS) - covered}")


def read_enumeration(csv_path: Path) -> Callable[[str], dict]:
    def parse(text: str) -> dict:
        with csv_path.open(newline="") as handle:
            return {"printed": int(text.split()[0]), "rows": list(csv.DictReader(handle))}
    return parse


def check_enumeration(n: int, k: int) -> Callable[[dict], None]:
    def check(data: dict) -> None:
        rows = data["rows"]
        require(data["printed"] == len(rows) == oracle.ORACLE_COUNTS[(n, k)],
                f"({n},{k}): printed {data['printed']}, {len(rows)} rows, "
                f"reference {oracle.ORACLE_COUNTS[(n, k)]}")
        forms = set()
        for row in rows:
            slots = [[int(s) for s in part.split()] for part in row["slots"].split(";")]
            require(len(slots) == k and all(len(r) == n for r in slots),
                    f"({n},{k}): row {row['index']} has the wrong shape")
            problems = oracle.stg_problems(slots)
            require(not problems, f"({n},{k}): row {row['index']}: {problems[:2]}")
            forms.add(oracle.canonical_form(slots))
        require(len(forms) == len(rows), f"({n},{k}): two rows are isomorphic")
    return check


def census(mx, inputs: None, workdir: Path) -> list[Op]:
    """verify_census() plus enumerations at grid points without a paper count."""
    ops = [Op("verify_census", lambda: mx.verify_census(), check_census_report, "census",
              parse=list)]
    for n, k in sorted(oracle.ORACLE_COUNTS):
        path = workdir / f"enumerate-{n}-{k}.csv"
        argv = ["enumerate", "--colors", str(n), "--vertices", str(k), "--count-only",
                "--csv", str(path)]
        ops.append(Op(f"enumerate:{n},{k}", lambda argv=argv: run_cli(mx.cli, argv),
                      check_enumeration(n, k), "enumerate", read_enumeration(path)))
    return ops


# ---------------------------------------------------------------------------
# corrupted outputs that each checker must refuse


def _wrong_aut(report: dict) -> dict:
    return {**report, "aut_order": report["aut_order"] + 1}


def _bad_generator(report: dict) -> dict:
    gens = report["generators"]
    return {**report, "generators": {**gens, "permutations": ["(0 1)"] + gens["permutations"][1:]}}


def _failed_census_line(checks: list) -> list:
    bad = dataclasses.replace(checks[0], actual=checks[0].expected + 1)
    return [bad] + checks[1:]


def _wrong_paper_count(checks: list) -> list:
    """A paper line whose expected and actual agree on a wrong count, so
    that the program's own ``passed`` still holds."""
    i = next(i for i, check in enumerate(checks) if paper_line(check) is not None)
    wrong = checks[i].actual + 1
    bad = dataclasses.replace(checks[i], expected=wrong, actual=wrong)
    return checks[:i] + [bad] + checks[i + 1:]


def _isomorphic_duplicate(data: dict) -> dict:
    """Row 1 replaced by row 0 with vertices 0 and 1 swapped."""
    rows = data["rows"]
    swap = {"0": "1", "1": "0"}
    twin = ";".join(" ".join(swap.get(s, s) for s in part.split())
                    for part in rows[0]["slots"].split(";"))
    part = twin.split(";")
    part[0], part[1] = part[1], part[0]
    return {**data, "rows": [rows[0], {**rows[1], "slots": ";".join(part)}] + rows[2:]}


CORRUPTIONS = {
    "analyze": [("wrong |Aut|", _wrong_aut), ("non-automorphism generator", _bad_generator)],
    "random": [("wrong |Aut|", _wrong_aut)],
    "census": [("failed census line", _failed_census_line),
               ("wrong paper count", _wrong_paper_count)],
    "enumerate": [("duplicated STG class", _isomorphic_duplicate)],
}

@dataclass
class Workload:
    """``prepare(seed)`` makes the inputs the benchmark generates itself,
    once and outside the set-up timer; ``build(mx, prepared, workdir)``
    is the timed set-up that returns the operations.  ``round_s`` is the
    time one round takes on the reference machine: a run makes
    floor(--seconds / round_s) rounds, at least two, so that the number of
    samples per operation does not change with the speed of the code
    under test."""

    build: Callable[[object, object, Path], list[Op]]
    round_s: float
    prepare: Callable[[int], object] = lambda seed: None


WORKLOADS = {
    "analyze-sym": Workload(analyze_sym, 10.0),
    "analyze-lowsym": Workload(analyze_lowsym, 12.0, random_map_inputs),
    "census": Workload(census, 22.0),
}
