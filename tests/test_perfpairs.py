"""Alternating perfbench pairs by bench/perfpairs.py: the summary on canned
run outputs, the exit code on unclean runs and on bytecode caches, and one
short real pair."""

from __future__ import annotations

import importlib.util
import io
import json
import os
import shutil
import textwrap

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PERFPAIRS = os.path.join(ROOT, "bench", "perfpairs.py")


def _perfpairs():
    spec = importlib.util.spec_from_file_location("perfpairs", PERFPAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(ops_per_s, tail_s, correct=True, failed=0):
    return {
        "correct": correct, "attempted": 180, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                    "op_tail_s": {"value": tail_s, "unit": "s"}},
    }


def _fake_checkout(path, result):
    """A checkout whose benchmark prints one line of text and then ``result``."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(textwrap.dedent(f"""\
        print("workload=corpus")
        print({json.dumps(json.dumps(result))})
    """))
    return str(path)


def test_summary_counts_wins_in_each_metrics_direction():
    perfpairs = _perfpairs()
    end_to_end = perfpairs.load_spec()["end_to_end"]
    # HEAD's ops_per_s is higher in 9 of 10 pairs and its tail lower in 4.
    pairs = [(_run(100 + i, 1.0), _run(110 + i if i else 99, 1.0 - (i < 4) * 0.1))
             for i in range(10)]
    rows = {r["name"]: r for r in perfpairs.summarize(pairs, end_to_end)}
    assert set(rows) == {"ops_per_s", "op_tail_s"}  # the runs lack the rest
    ops, tail = rows["ops_per_s"], rows["op_tail_s"]
    assert (ops["wins"], ops["pairs"], tail["wins"]) == (9, 10, 4)
    assert ops["base"] == (102.25, 104.5, 106.75)
    assert ops["head"][1] == 114.5 and abs(ops["ratio"] - 114.5 / 104.5) < 1e-12
    assert ops["beyond_iqr"]  # 10.0 apart, against an IQR of 4.5
    assert tail["base"] == (1.0, 1.0, 1.0) and tail["head"][1] == 1.0
    assert not tail["beyond_iqr"]
    text = perfpairs.render(perfpairs.summarize(pairs, end_to_end))
    assert "ops_per_s" in text and " 9/10" in text and "(higher is better)" in text


def test_one_pair_gives_each_side_its_own_quartiles():
    perfpairs = _perfpairs()
    assert perfpairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert perfpairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_exit_code_is_1_on_an_incorrect_run_or_a_failed_op(tmp_path):
    perfpairs = _perfpairs()
    clean = _fake_checkout(tmp_path / "clean", _run(100, 1.0))
    argv = ["--workload", "corpus", "--pairs", "2", "--seconds", "0"]
    out = io.StringIO()
    assert perfpairs.main([clean, clean, *argv], out) == 0
    assert "0 of 4 runs not clean" in out.getvalue()
    assert "pair 1/2 (base first)" in out.getvalue()
    assert "pair 2/2 (head first)" in out.getvalue()
    for name, result in (("wrong", _run(100, 1.0, correct=False)),
                         ("failed", _run(100, 1.0, failed=1))):
        bad = _fake_checkout(tmp_path / name, result)
        out = io.StringIO()
        assert perfpairs.main([clean, bad, *argv], out) == 1
        assert "head run not clean" in out.getvalue()
        assert "2 of 4 runs not clean" in out.getvalue()
    missing = str(tmp_path / "missing")
    os.mkdir(missing)
    out = io.StringIO()
    assert perfpairs.main([missing, clean, *argv], out) == 1
    assert "base run not clean: exit 2" in out.getvalue()


def test_every_run_writes_no_bytecode_cache(tmp_path):
    # The fake benchmark reports itself correct only when its environment
    # asks Python to write no bytecode.
    perfpairs = _perfpairs()
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(f"""\
        import json, os
        result = {_run(100, 1.0)!r}
        result["correct"] = os.environ.get("PYTHONDONTWRITEBYTECODE") == "1"
        print(json.dumps(result))
    """))
    out = io.StringIO()
    argv = [str(root), str(root), "--workload", "corpus", "--pairs", "1", "--seconds", "0"]
    assert perfpairs.main(argv, out) == 0, out.getvalue()
    assert "0 of 2 runs not clean" in out.getvalue()


def test_a_bytecode_cache_in_either_root_exits_2_before_any_run(tmp_path, capsys):
    perfpairs = _perfpairs()
    clean = _fake_checkout(tmp_path / "clean", _run(100, 1.0))
    for top in ("src/csmhyp", "perfbench"):
        cached = tmp_path / top.replace("/", "_")
        _fake_checkout(cached, _run(100, 1.0))
        # a run would leave this file behind
        (cached / "perfbench" / "run.py").write_text("open('ran', 'w')\n")
        (cached / top / "__pycache__").mkdir(parents=True)
        assert perfpairs.bytecode_caches(str(cached)) == [str(cached / top / "__pycache__")]
        for argv in ([clean, str(cached)], [str(cached), clean]):
            out = io.StringIO()
            assert perfpairs.main([*argv, "--workload", "corpus", "--pairs", "1",
                                   "--seconds", "0"], out) == 2
            err = capsys.readouterr().err
            assert str(cached / top / "__pycache__") in err
            assert out.getvalue() == "" and not (cached / "ran").exists()
    assert perfpairs.bytecode_caches(clean) == []


def test_a_short_real_pair_of_the_repo_against_itself(tmp_path):
    # Tests import the package and so leave bytecode caches in the repo;
    # the pair runs on a copy without them.
    perfpairs = _perfpairs()
    root = tmp_path / "checkout"
    no_cache = shutil.ignore_patterns("__pycache__")
    for top in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, top), root / top, ignore=no_cache)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    out = io.StringIO()
    code = perfpairs.main([str(root), str(root), "--workload", "corpus", "--pairs", "1",
                           "--seconds", "0"], out)
    assert code == 0, out.getvalue()
    lines = out.getvalue().splitlines()
    assert lines[-1] == "0 of 2 runs not clean"
    names = [line.split()[0] for line in lines[-7:-1]]
    assert names == ["metric", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "setup_s"]
