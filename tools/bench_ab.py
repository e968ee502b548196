#!/usr/bin/env python3
"""A/B recorder: run the benchmark in two checkouts, alternately, and write
one JSON summary of its end-to-end metrics.

    python3 tools/bench_ab.py --base DIR --change DIR --out BENCH_<n>.json

For every workload named in BENCHMARK.json it runs the benchmark's own
command, `python3 bench/run.py --workload W --seed 7 --seconds S --trace 0`
with S the benchmark's `run_seconds`, with each checkout's root as the
working directory, 10 times on each side; in each pair the side that
runs first alternates.  From every run it
reads the last line of standard output (the result JSON) and the
`fingerprint` line.

For each workload and end-to-end metric the summary holds every sample,
the median and quartiles of each side, the change/base ratio of the
medians, the metric's bound from BENCHMARK.json, and a verdict:
  - "unresolved" when the base's interquartile spread, relative to its
    median, exceeds the bound, unless every change run beats every base run;
  - otherwise "worse beyond bound" when the ratio is worse than 1 by more
    than the bound, and "within bound" when it is not.
Each metric also records `pairs_won`, the pairs k in which change run k
beats base run k in the metric's better direction (a tie, or a pair with a
missing run, is won by neither side), and `gain`: true when the change wins
at least 9 of 10 pairs and its median beats the base's by more than the
base's q3 - q1.  That is the rule a claimed gain must pass.
peak_rss_mb grows with the operations a run attempts, so the median
`attempted` of each side is printed beside it.  The summary also holds
`src_lines`, each checkout's line count of src/tiltcert/*.py (as `wc -l`
counts it), and prints it above the table.  `host.bytecode_cache` is false
when the runs inherit PYTHONDONTWRITEBYTECODE, so every start compiles
tiltcert: that shows in proof's `pass_rel` and in `setup_s`.

Standard library only, and nothing from tiltcert: it times from outside.
It runs no git commands and never changes a bound.  It exits 1 when any
run is incorrect or gives no result line, after writing the summary.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
SEED = 7
PAIRS = 10
GAIN_SHARE = Fraction(9, 10)


def parse_run(stdout):
    """(result, fingerprint) from one run's standard output.  result is the
    last line's JSON object, or None when that line is not a result;
    fingerprint is the text after "fingerprint ", or None."""
    lines = stdout.strip().splitlines()
    fingerprint = next(
        (line.removeprefix("fingerprint ") for line in lines if line.startswith("fingerprint ")),
        None,
    )
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        result = None
    return result, fingerprint


def spread(samples):
    """The samples with their median and quartiles (inclusive method)."""
    if len(samples) == 1:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "q1": q1, "median": median, "q3": q3}


def verdict(base, change, bound, better):
    """The verdict on one metric, from both sides' spread() records."""
    sign = 1 if better == "lower" else -1
    beats_all = max(sign * x for x in change["samples"]) < min(sign * x for x in base["samples"])
    if base["median"] == 0 or (base["q3"] - base["q1"]) / abs(base["median"]) > bound:
        return "within bound" if beats_all else "unresolved"
    ratio = change["median"] / base["median"]
    worse = ratio > 1 + bound if better == "lower" else ratio < 1 - bound
    return "worse beyond bound" if worse else "within bound"


def pairs_won(base, change, better):
    """How many pairs (base[k], change[k]) the change wins: its value is
    strictly better, in the direction `better`.  A None on either side, a
    run with no result, wins nothing."""
    sign = 1 if better == "lower" else -1
    return sum(
        b is not None and c is not None and sign * c < sign * b for b, c in zip(base, change)
    )


def gain(base, change, won, pairs, better):
    """Whether the change claims a gain on one metric: it wins at least
    GAIN_SHARE of the pairs, and its median beats the base's by more than the
    base's q3 - q1.  base and change are spread() records."""
    sign = 1 if better == "lower" else -1
    margin = sign * (base["median"] - change["median"])
    return won >= GAIN_SHARE * pairs and margin > base["q3"] - base["q1"]


def src_lines(root):
    """Newlines in root's src/tiltcert/*.py, the total `wc -l` prints."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src/tiltcert").glob("*.py"))


def record(workloads, pairs, run):
    """runs[workload][side]: the parse_run() pairs of each side, in order.
    run(side, workload) returns one run's standard output."""
    runs = {}
    for workload in workloads:
        runs[workload] = {side: [] for side in SIDES}
        for k in range(pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                runs[workload][side].append(parse_run(run(side, workload)))
    return runs


def summarize(spec, runs):
    """(summary, ok): the per-workload summary of runs against the metrics
    of spec (BENCHMARK.json); ok is False when a run is incorrect or has
    no result."""
    ok = True
    summary = {}
    for workload, sides in runs.items():
        results = {side: [r for r, _ in sides[side] if r is not None] for side in SIDES}
        bad = {
            side: sum(r is None or r.get("correct") is not True for r, _ in sides[side])
            for side in SIDES
        }
        ok = ok and not any(bad.values())
        entry = {
            "runs": {side: len(sides[side]) for side in SIDES},
            "bad_runs": bad,
            "fingerprints": {side: sorted({f or "" for _, f in sides[side]}) for side in SIDES},
            "attempted": {
                side: spread([r["attempted"] for r in results[side]])
                for side in SIDES
                if results[side]
            },
            "failed": {side: sum(r.get("failed", 0) for r in results[side]) for side in SIDES},
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            paired = {
                side: [
                    r["metrics"][name]["value"] if r is not None and name in r["metrics"] else None
                    for r, _ in sides[side]
                ]
                for side in SIDES
            }
            values = {side: [x for x in paired[side] if x is not None] for side in SIDES}
            if not all(values.values()):
                entry["metrics"][name] = {"bound": metric["bound"], "verdict": "no samples"}
                continue
            base, change = spread(values["base"]), spread(values["change"])
            won = pairs_won(paired["base"], paired["change"], metric["better"])
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "base": base,
                "change": change,
                "ratio": change["median"] / base["median"] if base["median"] else None,
                "base_rel_iqr": (
                    (base["q3"] - base["q1"]) / base["median"] if base["median"] else None
                ),
                "verdict": verdict(base, change, metric["bound"], metric["better"]),
                "pairs_won": won,
                "gain": gain(base, change, won, len(paired["base"]), metric["better"]),
            }
        summary[workload] = entry
    return summary, ok


def _table(summary):
    """One line per workload and metric, for the terminal."""
    lines = []
    for workload, entry in summary.items():
        lines.append(f"{workload}: fingerprints {entry['fingerprints']}")
        for name, m in entry["metrics"].items():
            if "base" not in m:
                lines.append(f"  {name}: {m['verdict']}")
                continue
            if m["ratio"] is None:  # a base median of 0
                ratio = rel_iqr = "n/a"
            else:
                ratio, rel_iqr = f"{m['ratio']:.3f}", f"{m['base_rel_iqr']:.3f}"
            line = (
                f"  {name}: base {m['base']['median']:.4g} change {m['change']['median']:.4g} "
                f"{m['unit']}, ratio {ratio}, base IQR/median {rel_iqr}, "
                f"bound {m['bound']}: {m['verdict']}; "
                f"pairs won {m['pairs_won']}/{entry['runs']['base']}, gain {m['gain']}"
            )
            if name == "peak_rss_mb" and len(entry["attempted"]) == 2:
                att = entry["attempted"]
                line += f" (attempted {att['base']['median']:g} / {att['change']['median']:g})"
            lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the base checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    roots = {"base": args.base, "change": args.change}
    tail = ["--seed", str(SEED), "--seconds", f"{seconds:g}", "--trace", "0"]

    def run(side, workload):
        argv = [*spec["command"], "--workload", workload, *tail]
        print(f"{side}: {' '.join(argv)}", file=sys.stderr, flush=True)
        try:
            proc = subprocess.run(
                argv, cwd=roots[side], capture_output=True, text=True,
                timeout=600 + 20 * seconds,
            )
        except subprocess.TimeoutExpired:
            return ""
        return proc.stdout

    workloads = [w["name"] for w in spec["workloads"]]
    summary, ok = summarize(spec, record(workloads, PAIRS, run))
    out = {
        "command": [*spec["command"], "--workload", "W", *tail],
        "pairs": PAIRS,
        "order": "pair k runs base first when k is even, change first when k is odd",
        "checkouts": {side: root.resolve().name for side, root in roots.items()},
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            # Runs without .pyc files compile tiltcert on every start.
            "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "all_runs_correct": ok,
        "workloads": summary,
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    lines = out["src_lines"]
    print(f"src_lines: base {lines['base']} change {lines['change']}")
    print("\n".join(_table(summary)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
