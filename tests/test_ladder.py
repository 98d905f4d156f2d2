"""The per-input ladder of bench/ladder.py, on two conics."""

from __future__ import annotations

import importlib.util
import json
import os
from types import SimpleNamespace

import pytest

from csmhyp.charclasses import build_report

LADDER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "ladder.py")


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_writes_a_median_and_a_g_vector_per_input(tmp_path):
    ladder = _ladder()
    cases = [
        ("conics", SimpleNamespace(name="smooth_conic", poly="x0^2 + x1^2 + x2^2", nvars=3)),
        ("conics", SimpleNamespace(name="two_lines", poly="x0^2 + x1^2", nvars=3)),
    ]
    path = ladder.write_ladder(build_report, cases, "conics", 2, str(tmp_path))
    assert os.path.basename(path) == "BENCH_conics.json"
    with open(path) as fh:
        data = json.load(fh)
    assert set(data) == {"label", "repeats", "reference_s", "host", "inputs"}
    assert data["label"] == "conics" and data["repeats"] == 2
    assert set(data["host"]) == {"machine", "cpus", "python"}
    assert [row["input"] for row in data["inputs"]] == ["smooth_conic", "two_lines"]
    for row in data["inputs"]:
        assert set(row) == {"workload", "input", "nvars", "median_s", "g"}
        assert row["workload"] == "conics" and row["nvars"] == 3
        assert row["median_s"] > 0
    # Bezout for the smooth conic; the node of the line pair drops g_2.
    assert [row["g"] for row in data["inputs"]] == [[1, 1, 1], [1, 1, 0]]
    with pytest.raises(ValueError):
        ladder.write_ladder(build_report, cases, "../up", 1, str(tmp_path))


def test_main_times_the_chosen_workload(tmp_path, capsys):
    ladder = _ladder()
    ladder.main(["--label", "one", "--workload", "nonisolated", "--repeats", "1",
                 "--out", str(tmp_path)])
    path = capsys.readouterr().out.strip()
    with open(path) as fh:
        rows = json.load(fh)["inputs"]
    assert len(rows) == 6 and {row["workload"] for row in rows} == {"nonisolated"}
    assert rows[0]["input"] == "roman_steiner" and rows[0]["g"] == [1, 3, 6, 4]
