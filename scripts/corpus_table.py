#!/usr/bin/env python3
"""Print the symmetry profile of every corpus construction.

Columns: flags, automorphism order, orbit count, type label, colours
with broken face transitivity, orientability, orientation-preserving
order, chirality.
"""

from maniplex.constructions import CORPUS, construction
from maniplex.oriented import aut_plus, is_chiral_a_la_conway, orientation
from maniplex.stg import classify, quotient, transitivity_profile
from maniplex.symmetry import aut_group


def main() -> None:
    header = (f"{'label':<14} {'flags':>5} {'|Aut|':>5} {'k':>2} "
              f"{'class':<22} {'broken':<9} {'orient':<6} {'|Aut+|':>6} chiral")
    print(header)
    print("-" * len(header))
    for label in CORPUS:
        g = construction(label)
        a = aut_group(g)
        t = quotient(a)
        cls = classify(t).label()
        broken = ",".join(map(str, sorted(transitivity_profile(t)))) or "-"
        o = orientation(g)
        if o is None:
            orient, plus, chiral = "no", "-", "-"
        else:
            ap = aut_plus(a, o)
            orient = "yes"
            plus = str(ap.order)
            chiral = "yes" if is_chiral_a_la_conway(a, ap, t) else "no"
        print(f"{label:<14} {g.flag_count:>5} {a.order:>5} {a.orbit_count:>2} "
              f"{cls:<22} {broken:<9} {orient:<6} {plus:>6} {chiral}")


if __name__ == "__main__":
    main()
