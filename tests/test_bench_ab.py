"""tools/bench_ab.py, the A/B recorder, on canned bench/run.py outputs:
no benchmark runs here."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

SPEC = {
    "command": ["python3", "bench/run.py"],
    "workloads": [{"name": "proof"}],
    "end_to_end": [
        {"name": "op_rel", "unit": "x", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}


def _stdout(op_rel, rss=20.0, correct=True, attempted=100, fingerprint="ab12"):
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else 1,
        "metrics": {
            "op_rel": {"value": op_rel, "unit": "x"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return "\n".join(
        ["workload proof, seed 7, passes [3]", f"fingerprint {fingerprint}", "op_rel = 1 x"]
        + [json.dumps(result)]
    )


def test_parse_run_reads_the_last_line_and_the_fingerprint():
    result, fingerprint = bench_ab.parse_run(_stdout(1.5) + "\n")
    assert fingerprint == "ab12"
    assert result["attempted"] == 100 and result["metrics"]["op_rel"]["value"] == 1.5
    # A run that died: no result line, or a last line that is not a result.
    assert bench_ab.parse_run("") == (None, None)
    assert bench_ab.parse_run("fingerprint ff\nTraceback ...")[0] is None
    assert bench_ab.parse_run('{"correct": true}')[0] is None
    assert bench_ab.parse_run(_stdout(1.5) + "\nbench: done")[0] is None


def test_spread_is_median_and_inclusive_quartiles():
    s = bench_ab.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    assert s["samples"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    one = bench_ab.spread([7.0])
    assert (one["q1"], one["median"], one["q3"]) == (7.0, 7.0, 7.0)


# IQR/median of 0.02 and of 0.5, against a bound of 0.25.
TIGHT = [1.00, 1.00, 1.01, 1.02, 1.02]
WIDE = [0.50, 0.80, 1.00, 1.30, 1.50]


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        # A tight base: the ratio of the medians decides.
        (TIGHT, [1.10, 1.10, 1.12, 1.13, 1.14], "lower", "within bound"),
        (TIGHT, [1.30, 1.30, 1.32, 1.33, 1.34], "lower", "worse beyond bound"),
        (TIGHT, [0.70, 0.70, 0.71, 0.72, 0.72], "higher", "worse beyond bound"),
        # A wide base: unresolved either way ...
        (WIDE, [0.90, 0.95, 1.00, 1.05, 1.10], "lower", "unresolved"),
        (WIDE, [1.60, 1.70, 1.80, 1.90, 2.00], "lower", "unresolved"),
        # ... unless every change run beats every base run.
        (WIDE, [0.30, 0.35, 0.40, 0.45, 0.49], "lower", "within bound"),
        (WIDE, [1.60, 1.70, 1.80, 1.90, 2.00], "higher", "within bound"),
    ],
)
def test_verdicts(base, change, better, expected):
    verdict = bench_ab.verdict(bench_ab.spread(base), bench_ab.spread(change), 0.25, better)
    assert verdict == expected


BASE10 = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # q3 - q1 = 0.045


def _op_rel_of_pairs(base, change):
    """The op_rel summary of canned pairs; a value of None is a run that
    gave no result line."""
    outputs = {
        side: iter(["" if x is None else _stdout(x) for x in values])
        for side, values in (("base", base), ("change", change))
    }
    runs = bench_ab.record(["proof"], len(base), lambda side, workload: next(outputs[side]))
    summary, _ = bench_ab.summarize(SPEC, runs)
    return summary, summary["proof"]["metrics"]["op_rel"]


def test_a_gain_wins_nine_in_ten_pairs_by_more_than_the_base_spread():
    summary, op = _op_rel_of_pairs(BASE10, [x - 0.2 for x in BASE10])
    assert (op["pairs_won"], op["gain"]) == (10, True)
    assert "pairs won 10/10, gain True" in "\n".join(bench_ab._table(summary))


def test_eight_pairs_in_ten_are_no_gain():
    change = [x - 0.2 for x in BASE10[:8]] + [x + 0.2 for x in BASE10[8:]]
    _, op = _op_rel_of_pairs(BASE10, change)
    assert (op["pairs_won"], op["gain"]) == (8, False)
    # The medians alone would pass: only the share of pairs fails.
    assert op["base"]["median"] - op["change"]["median"] > op["base"]["q3"] - op["base"]["q1"]


def test_every_pair_won_inside_the_base_spread_is_no_gain():
    _, op = _op_rel_of_pairs(BASE10, [x - 0.005 for x in BASE10])
    assert (op["pairs_won"], op["gain"]) == (10, False)


def test_a_tie_is_won_by_neither_side():
    assert bench_ab.pairs_won([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower") == 1
    assert bench_ab.pairs_won([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "higher") == 1
    _, op = _op_rel_of_pairs(BASE10, BASE10)
    assert (op["pairs_won"], op["gain"]) == (0, False)
    _, op = _op_rel_of_pairs(BASE10, [x - 0.2 for x in BASE10[:9]] + BASE10[9:])
    assert (op["pairs_won"], op["gain"]) == (9, True)


def test_a_pair_with_a_missing_result_is_not_won():
    assert bench_ab.pairs_won([1.0, None, 3.0], [0.5, 0.5, None], "lower") == 1
    change = [x - 0.2 for x in BASE10]
    summary, op = _op_rel_of_pairs(BASE10[:3] + [None] + BASE10[4:], change)
    assert summary["proof"]["bad_runs"] == {"base": 1, "change": 0}
    assert (op["pairs_won"], op["gain"]) == (9, True)
    _, op = _op_rel_of_pairs(BASE10, change[:2] + [None, None] + change[4:])
    assert (op["pairs_won"], op["gain"]) == (8, False)


def test_record_alternates_which_side_runs_first():
    calls = []

    def run(side, workload):
        calls.append(side)
        return _stdout(1.0)

    runs = bench_ab.record(["proof"], 3, run)
    assert calls == ["base", "change", "change", "base", "base", "change"]
    assert [len(runs["proof"][side]) for side in bench_ab.SIDES] == [3, 3]


def test_summary_from_canned_runs():
    outputs = {
        "base": iter([_stdout(1.0, 20.0, attempted=90), _stdout(1.1, 20.2, attempted=110)]),
        "change": iter([_stdout(1.5, 21.0, attempted=95), _stdout(1.4, 21.5, attempted=99)]),
    }
    runs = bench_ab.record(["proof"], 2, lambda side, workload: next(outputs[side]))
    summary, ok = bench_ab.summarize(SPEC, runs)
    proof = summary["proof"]
    assert ok and proof["bad_runs"] == {"base": 0, "change": 0}
    assert proof["fingerprints"] == {"base": ["ab12"], "change": ["ab12"]}
    op = proof["metrics"]["op_rel"]
    assert op["base"]["samples"] == [1.0, 1.1] and op["change"]["samples"] == [1.5, 1.4]
    assert op["base"]["median"] == pytest.approx(1.05)
    assert op["ratio"] == pytest.approx(1.45 / 1.05)
    assert op["bound"] == 0.25 and op["verdict"] == "worse beyond bound"
    rss = proof["metrics"]["peak_rss_mb"]
    assert rss["ratio"] == pytest.approx(21.25 / 20.1) and rss["verdict"] == "within bound"
    assert proof["attempted"]["base"]["median"] == 100
    assert proof["attempted"]["change"]["median"] == 97
    table = "\n".join(bench_ab._table(summary))
    assert "peak_rss_mb" in table and "(attempted 100 / 97)" in table


def test_an_incorrect_or_missing_run_fails_the_record():
    outputs = {"base": iter([_stdout(1.0), ""]), "change": iter([_stdout(1.0, correct=False)] * 2)}
    runs = bench_ab.record(["proof"], 2, lambda side, workload: next(outputs[side]))
    summary, ok = bench_ab.summarize(SPEC, runs)
    assert not ok
    assert summary["proof"]["bad_runs"] == {"base": 1, "change": 2}


def test_a_zero_base_median_has_no_ratio():
    outputs = {"base": iter([_stdout(0.0)] * 2), "change": iter([_stdout(0.0), _stdout(0.1)])}
    runs = bench_ab.record(["proof"], 2, lambda side, workload: next(outputs[side]))
    summary, ok = bench_ab.summarize(SPEC, runs)
    op = summary["proof"]["metrics"]["op_rel"]
    assert ok and op["ratio"] is None and op["base_rel_iqr"] is None
    assert op["verdict"] == "unresolved"
    assert "op_rel: base 0 change 0.05 x, ratio n/a, base IQR/median n/a" in "\n".join(
        bench_ab._table(summary)
    )


def test_main_runs_the_benchmark_settings(monkeypatch, tmp_path):
    # The run length is BENCHMARK.json's, the seed is 7, and there are 10
    # pairs per workload.  The host record says whether the runs, which
    # inherit the environment, may write .pyc files.
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((argv, cwd))
        return subprocess.CompletedProcess(argv, 0, stdout=_stdout(1.0), stderr="")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    out = tmp_path / "ab.json"
    argv = ["--base", str(tmp_path / "a"), "--change", str(tmp_path / "b"), "--out", str(out)]
    assert bench_ab.main(argv) == 0
    assert len(calls) == 2 * 10 * len(spec["workloads"])
    tail = ["--seed", "7", "--seconds", f"{spec['run_seconds']:g}", "--trace", "0"]
    assert all(a[:2] == spec["command"] and a[-6:] == tail for a, _ in calls)
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["pairs"] == 10 and summary["host"]["bytecode_cache"] is True
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_ab.main(argv) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["host"]["bytecode_cache"] is False


def test_src_lines_counts_each_checkouts_package_like_wc(monkeypatch, tmp_path, capsys):
    # Two checkouts: 3 + 2 lines in the base, one file without a final
    # newline in the change; files outside src/tiltcert/*.py do not count.
    files = {
        "base/src/tiltcert/__init__.py": "a\nb\nc\n",
        "base/src/tiltcert/cli.py": "x\n\n",
        "base/src/tiltcert/notes.txt": "1\n2\n",
        "base/tests/test_x.py": "1\n",
        "change/src/tiltcert/__init__.py": "a\nb",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    base, change = tmp_path / "base", tmp_path / "change"
    assert (bench_ab.src_lines(base), bench_ab.src_lines(change)) == (5, 1)
    wc = subprocess.run(
        ["wc", "-l", *map(str, sorted((base / "src/tiltcert").glob("*.py")))],
        capture_output=True, text=True, check=True,
    )
    assert wc.stdout.splitlines()[-1].split()[0] == "5"

    def fake_run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=_stdout(1.0), stderr="")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    out = tmp_path / "ab.json"
    assert bench_ab.main(["--base", str(base), "--change", str(change), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["src_lines"] == {"base": 5, "change": 1}
    assert "src_lines: base 5 change 1" in capsys.readouterr().out


def test_the_recorder_imports_only_the_standard_library():
    # It times tiltcert from outside, so it must not import it.
    imported = set()
    for node in ast.walk(ast.parse(TOOL.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and all(name.split(".")[0] in sys.stdlib_module_names for name in imported)
    assert not any(name.split(".")[0] == "tiltcert" for name in imported)
