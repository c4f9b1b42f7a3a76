#!/usr/bin/env python3
"""Print the symmetry profile of every corpus construction, read from
``formats.report``, the payload of ``maniplex analyze --oriented``.

Columns: flags, automorphism order, orbit count, type label, colours
with broken face transitivity, orientability, orientation-preserving
order, chirality.
"""

from maniplex.constructions import CORPUS, construction
from maniplex.formats import report


def main() -> None:
    header = (f"{'label':<14} {'flags':>5} {'|Aut|':>5} {'k':>2} "
              f"{'class':<22} {'broken':<9} {'orient':<6} {'|Aut+|':>6} chiral")
    print(header)
    print("-" * len(header))
    for label in CORPUS:
        p = report(label, construction(label), oriented=True)
        broken = ",".join(map(str, p["non_transitive"])) or "-"
        o = p["oriented"]
        if o["orientable"]:
            orient, plus = "yes", str(p["aut_order"] // o["index"])  # |Aut+| = |Aut| / index
            chiral = "yes" if o["chiral_a_la_conway"] else "no"
        else:
            orient, plus, chiral = "no", "-", "-"
        print(f"{label:<14} {p['flags']:>5} {p['aut_order']:>5} {p['orbit_count']:>2} "
              f"{p['class']:<22} {broken:<9} {orient:<6} {plus:>6} {chiral}")


if __name__ == "__main__":
    main()
