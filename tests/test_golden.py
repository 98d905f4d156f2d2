"""Pinned CLI output, byte for byte.

The files under ``tests/golden/`` hold the exact stdout of each command
below (default primes and seeds).  A change to the Groebner kernel, the
random slices or the report must leave every g-vector, class, verdict and
trial record, and therefore every byte, as it was; regenerate a file only
for a deliberate change of output and say why in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from csmhyp.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("compute_two_lines.json", ["compute", "x0*x1", "--nvars", "3", "--json"]),
    ("compute_four_planes.json", ["compute", "x0*x1*x2*x3", "--nvars", "4", "--json"]),
    (
        "compute_quartic_surface.json",
        [
            "compute", "(x0^2+x1^2+x2^2+x3^2)^2 - 4*x0*x1*x2*x3",
            "--nvars", "4", "--json",
        ],
    ),
    (
        "compute_quadrifolium.json",
        ["compute", "(x0^2+x1^2)^3 - 4*x0^2*x1^2*x2^2", "--nvars", "3", "--json"],
    ),
    (
        "compute_quartic_3fold_double_quadric.json",
        [
            "compute", "(x0^2+x1^2+x2^2+x3^2+x4^2)^2 + x4^4",
            "--nvars", "5", "--json",
        ],
    ),
    ("verify.json", ["verify", "--json"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_pinned_output_is_byte_identical(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
