"""Wrong exit-0 reports counted by bench/trust.py."""

from __future__ import annotations

import importlib.util
import json
import os
from types import SimpleNamespace

import csmhyp
import csmhyp.segre as segre_mod

TRUST = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "trust.py")
TWO_INPUTS = [
    ("subset", SimpleNamespace(
        name="nodal_cubic", poly="x1^2*x2 - x0^3 - x0^2*x2", nvars=3,
        expected={"projective_degrees": [1, 2, 3], "euler": 1},
    )),
    ("subset", SimpleNamespace(
        name="four_planes", poly="x0*x1*x2*x3", nvars=4,
        expected={"projective_degrees": [1, 3, 3, 1], "euler": 4},
    )),
]


def _trust():
    spec = importlib.util.spec_from_file_location("trust", TRUST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mismatches(expected, got):
    return [key for key, want in expected.items() if got.get(key) != want]


def test_a_low_trial_that_repeats_counts_as_wrong(monkeypatch):
    # Every trial of a quartic reads g_3 as 0: for four planes that is
    # below its bound 9 // 3, so it stays open, two trials agree on it and
    # the report is wrong.
    trust = _trust()
    real = segre_mod._degrees_one_trial

    def low(scheme, rng, certified):
        g = real(scheme, rng, certified)
        return g[:3] + (0,) if scheme.d == 4 else g

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", low)
    seeds = [(1, 2), (3, 4)]
    policies = {"default": None, "1009-1013": (1009, 1013)}
    table = trust.count(csmhyp, TWO_INPUTS, policies, seeds, mismatches)
    assert [row["policy"] for row in table] == ["default", "1009-1013"]
    assert [row["primes"] for row in table] == [None, [1009, 1013]]
    for row in table:
        assert (row["reports"], row["wrong"], row["raised"]) == (4, 2, 0)
        assert row["wrong_reports"] == [
            {"input": "four_planes", "seeds": [a, b],
             "fields": ["projective_degrees", "euler"]}
            for a, b in seeds
        ]
    monkeypatch.setattr(segre_mod, "_degrees_one_trial", real)
    table = trust.count(csmhyp, TWO_INPUTS, policies, seeds, mismatches)
    assert [(row["wrong"], row["raised"]) for row in table] == [(0, 0), (0, 0)]


def test_a_raise_is_recorded_with_the_first_line_of_its_message(monkeypatch):
    # Every trial of a quartic reads g_1 one above its bound e = 3.
    trust = _trust()
    real = segre_mod._degrees_one_trial

    def high(scheme, rng, certified):
        g = real(scheme, rng, certified)
        return (g[0], g[1] + 1) + g[2:] if scheme.d == 4 else g

    monkeypatch.setattr(segre_mod, "_degrees_one_trial", high)
    table = trust.count(csmhyp, TWO_INPUTS, {"default": None}, [(1, 2)], mismatches)
    assert (table[0]["wrong"], table[0]["raised"]) == (0, 1)
    assert table[0]["raised_reports"] == [{
        "input": "four_planes", "seeds": [1, 2], "error": "CsmhypError",
        "message": "projective degree g_1 = 4 is above its bound 3 at prime 32003",
    }]


def test_main_writes_a_table_per_policy(tmp_path, capsys):
    trust = _trust()
    trust.main(["--label", "t", "--seed-pairs", "1", "--out", str(tmp_path)])
    path = tmp_path / "TRUST_t.json"
    assert capsys.readouterr().out.strip() == str(path)
    table = json.loads(path.read_text())
    assert table["label"] == "t" and table["workloads"] == ["corpus", "nonisolated"]
    assert len(table["seed_pairs"]) == 1
    assert [row["policy"] for row in table["policies"]] == list(trust.POLICIES)
    for row in table["policies"]:
        assert row["reports"] == 24
        assert row["wrong"] == len(row["wrong_reports"])
        assert row["raised"] == len(row["raised_reports"])
    assert table["policies"][0]["wrong"] == table["policies"][0]["raised"] == 0
