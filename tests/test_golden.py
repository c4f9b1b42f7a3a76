"""`maniplex analyze --generators --oriented` output, pinned byte for byte.

The digests in ``golden_analyze.json`` are sha256 sums of stdout for the
JSON and the text report of every corpus label and of the benchmark's
larger labels.  A change that alters any report fails here; regenerate
the file only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from maniplex.cli import main
from maniplex.constructions import CORPUS

GOLDEN = Path(__file__).with_name("golden_analyze.json")
LABELS = CORPUS + ("prism:200", "pyramid:200", "torus44:20,7", "simplex:6")
FORMS = {"json": ["--json"], "text": []}


def analyze_digests() -> dict[str, str]:
    out = {}
    for label in LABELS:
        for form, flags in FORMS.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(["analyze", label, *flags, "--generators", "--oriented"])
            assert code == 0, (label, form, code)
            out[f"{label} {form}"] = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    return out


def test_analyze_output_is_byte_identical():
    expected = json.loads(GOLDEN.read_text())
    actual = analyze_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, changed


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(analyze_digests(), indent=1) + "\n")
