"""tiltcert benchmark: one workload, timed from outside, checked by an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's operations run in passes,
one at a time in this single process (CLI calls in a fresh interpreter,
one after another), until S seconds have gone and at least MIN_PASSES
passes are done.  Correctness is checked after timing, on the outcome of
the first pass, and every later pass must reproduce that outcome exactly.

Each operation is also timed against `calibration()`, a fixed piece of
exact-rational arithmetic that does not touch tiltcert, run just before it
(once per CALIBRATION_EVERY_NS at most).  The gated timings are medians of
these ratios.  On a shared 2-vCPU Xeon VM (2.1 GHz) the speed of the same
code changed by up to 1.6 times from one minute to the next; that moves
every raw time alike and leaves the ratios within a few percent.  Raw
medians in seconds are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones, in which every layer is patched (tracing.py), and
prints the per-layer metrics, the tracing overhead (traced minus untraced
pass time) and the three predictions the benchmark was built to test.
The last line of standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"

MIN_PASSES = 3
SETUP_REPEATS = 7
PROBE_REPEATS = 3
CALIBRATION_EVERY_NS = 250_000_000
MAX_SPANS = 600_000  # no new traced pass starts beyond this many spans
PROBE_TIMEOUT_S = 60
SUITE_SECTIONS = ("structural", "lemma", "half_plane", "skyscraper", "mu", "bg")
SVG_GROUPS = ("wall32", "wall64", "zvectors")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def calibration():
    """The yardstick: 15-22 ms of Fraction arithmetic on a 2.1 GHz Xeon vCPU."""
    acc = Fraction(0)
    x = Fraction(3, 7)
    for k in range(1, 400):
        acc += x ** (k % 9) / k
        acc = acc.limit_denominator(10**30)
    return acc


def _child(args, env):
    """Run a fresh interpreter from the checkout root; return (seconds, proc)."""
    start = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    return (time.perf_counter_ns() - start) / 1e9, proc


def measure_setup(workloads, name, seed):
    """Median wall time of a fresh interpreter importing tiltcert and
    building the workload's inputs; the first child only warms caches."""
    env = workloads.python_env(str(ROOT))
    args = [str(BENCH / "setup_probe.py"), name, str(seed)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        elapsed, proc = _child(args, env)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if k:
            times.append(elapsed)
    return median(times)


def probe_cli(workloads, argv):
    """Medians of (import time, main self time) from fresh interpreters."""
    env = workloads.python_env(str(ROOT))
    imports, selfs = [], []
    for _ in range(PROBE_REPEATS):
        _, proc = _child([str(BENCH / "cli_probe.py"), *argv], env)
        if proc.returncode != 0:
            raise RuntimeError(f"cli probe failed: {proc.stderr.strip()}")
        row = json.loads(proc.stdout.splitlines()[-1])
        imports.append(row["import_s"])
        selfs.append(row["main_s"] - row["inner_s"])
    return median(imports), median(selfs)


class Measurement:
    """Samples and outcomes of repeated passes over a workload's ops."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.ratios = [[] for _ in ops]  # sample / the calibration just before
        self.calibrated_at = None
        self.calibration_ns = None
        self.first = [None] * len(ops)
        self.keys = [None] * len(ops)
        self.mismatches = [0] * len(ops)
        self.errors = [None] * len(ops)
        self.passes = 0

    def run_pass(self, tracer=None, reference=None):
        """One timed pass.  `reference` holds the expected outcome keys (from
        an untraced pass); without it the first pass sets them."""
        clock = time.perf_counter_ns
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.run_id = self.passes * len(self.ops) + i
            start = clock()
            due = self.calibrated_at is None or start - self.calibrated_at >= CALIBRATION_EVERY_NS
            if due:
                calibration()
                self.calibrated_at = clock()
                self.calibration_ns = self.calibrated_at - start
                start = self.calibrated_at
            try:
                outcome = op.call()
            except Exception as err:  # counted as a failed operation
                outcome = None
                self.errors[i] = self.errors[i] or f"{type(err).__name__}: {err}"
            elapsed = clock() - start
            self.samples[i].append(elapsed)
            self.ratios[i].append(elapsed / self.calibration_ns)
            key = "error" if outcome is None else op.key(outcome)
            if self.keys[i] is None:
                self.first[i] = outcome
                self.keys[i] = reference[i] if reference else key
            if key != self.keys[i]:
                self.mismatches[i] += 1
        self.passes += 1

    def pass_total(self, series):
        """Sum over the distinct operations of their median; an operation
        placed several times in a pass counts once."""
        by_label = {}
        for op, values in zip(self.ops, series):
            by_label.setdefault(op.label, []).extend(values)
        return sum(median(v) for v in by_label.values())

    def pass_s(self):
        return self.pass_total(self.samples) / 1e9

    def pass_rel(self):
        return self.pass_total(self.ratios)

    def group_samples(self, group, series=None):
        series = self.samples if series is None else series
        return [x for op, s in zip(self.ops, series) if op.group == group for x in s]


def judge(workload, measurements):
    """Oracle verdicts: (attempted, failed, problems)."""
    base = measurements[0]
    attempted = failed = 0
    problems = []
    for i, op in enumerate(workload.ops):
        runs = sum(len(m.samples[i]) for m in measurements)
        attempted += runs
        raised = [m.errors[i] for m in measurements if m.errors[i]]
        error = raised[0] if raised else op.check(base.first[i])
        if error is not None:
            failed += runs
            problems.append(f"{op.label}: {error}")
            continue
        mismatched = sum(m.mismatches[i] for m in measurements)
        if mismatched:
            failed += mismatched
            problems.append(f"{op.label}: outcome changed in {mismatched} of {runs} runs")
    for label, check in workload.after:
        attempted += 1
        error = check()
        if error is not None:
            failed += 1
            problems.append(f"{label}: {error}")
    return attempted, failed, problems


def fingerprint(workload, measurement):
    digest = hashlib.sha256()
    for op, key in zip(workload.ops, measurement.keys):
        digest.update(f"{op.label}\t{key}\n".encode())
    return digest.hexdigest()


def status_mix(workload, measurement):
    mix = {}
    for op, outcome in zip(workload.ops, measurement.first):
        status = getattr(outcome, "status", None)
        if op.group == "claim" and status is not None:
            mix[status] = mix.get(status, 0) + 1
    return mix


def named_metrics(workload, m):
    """Raw timings, in seconds: the gated figures' raw counterparts and the
    workload's own metrics, printed beside the gated ones; latencies here
    are medians over the passes."""
    out = {}

    def median_of(group):
        return median(m.group_samples(group)) / 1e9

    out["pass_s"] = (m.pass_s(), "s")
    out["op_ms"] = (median(m.group_samples(workload.headline)) / 1e6, "ms")
    out["calibration_ms"] = (m.calibration_ns / 1e6, "ms")
    if workload.name == "proof":
        out["verify_s"] = (median_of("verify"), "s")
        out["cli_verify_s"] = (median_of("cli_verify"), "s")
    if workload.name in ("subdivide", "refute"):
        claims = [i for i, op in enumerate(workload.ops) if op.group == "claim"]
        corpus_ns = sum(median(m.samples[i]) for i in claims)
        samples = m.group_samples("claim")
        out[f"claims_per_s[corpus={len(claims)}]"] = (len(claims) / (corpus_ns / 1e9), "1/s")
        out[f"claim_p50_ms[n={len(samples)}]"] = (median(samples) / 1e6, "ms")
        out[f"claim_p95_ms[n={len(samples)}]"] = (percentile(samples, 95) / 1e6, "ms")
    if workload.name == "subdivide":
        out["reference_claim_s"] = (median_of("reference"), "s")
    if workload.name == "refute":
        out["refute_s"] = (median_of("widened"), "s")
        out["nosubdiv_s"] = (median_of("nosubdiv"), "s")
    if workload.name == "figures":
        for group in SVG_GROUPS:
            name = f"wall_plot_s[grid={group[4:]}]" if group.startswith("wall") else "zvectors_s"
            out[name] = (median_of(group), "s")
    return out


def end_to_end(workload, m, setup_s):
    return {
        "pass_rel": (m.pass_rel(), "x"),
        "op_rel": (median(m.group_samples(workload.headline, m.ratios)), "x"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, untraced, traced, tracer, cli_import_s, cli_probe_self_s):
    by_name, children = tracer.summary()
    passes = traced.passes

    def row(name):
        return by_name.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0})

    def calls(name):
        return row(name)["calls"] / passes

    def self_s(name):
        return row(name)["self_ns"] / passes / 1e9

    def total_s(name):
        return row(name)["total_ns"] / passes / 1e9

    certs = tracer.results["certify.sign"]
    traced_pass_s = traced.pass_s()
    out = {}
    for layer in (
        "kernel.bernstein",
        "kernel.interval_eval",
        "kernel.poly_eval",
        "kernel.poly_mul",
        "certify.sign",
        "certify.box",
        "certify.witness",
        "tilt.z_polynomials",
        "tilt.cross_polynomial",
        "tilt.bg_margin",
        "chern.twist",
    ):
        out[f"{layer}.calls"] = (calls(layer), "count")
        out[f"{layer}.self_s"] = (self_s(layer), "s")
    out["kernel.bernstein.total_s"] = (total_s("kernel.bernstein"), "s")
    out["certify.sign.total_s"] = (total_s("certify.sign"), "s")
    out["certify.witness.total_s"] = (total_s("certify.witness"), "s")
    out["certify.witness.points"] = (
        children.get(("kernel.poly_eval", "certify.witness"), 0) / passes,
        "count",
    )
    out["certify.boxes"] = (sum(c[1] for c in certs) / passes, "count")
    out["certify.depth_max"] = (max((c[2] for c in certs), default=0), "count")
    box_calls = calls("certify.box")
    settled = 1 - calls("kernel.bernstein") / box_calls if box_calls else 0.0
    out["certify.hull_settled_ratio"] = (settled, "ratio")
    for status in oracle.STATUSES:
        count = sum(1 for c in certs if c[0] == status)
        out[f"certify.status.{status}"] = (count / passes, "count")
    sign_s = total_s("certify.sign")
    out["certify.bernstein_share"] = (
        self_s("kernel.bernstein") / sign_s if sign_s else 0.0,
        "ratio",
    )
    out["certify.witness_share"] = (total_s("certify.witness") / traced_pass_s, "ratio")
    for section in SUITE_SECTIONS:
        out[f"suite.{section}_s"] = (total_s(f"suite.{section}"), "s")
    out["suite.items"] = (sum(tracer.results["suite.verify_all"]) / passes, "count")
    out["heart.candidates_s"] = (total_s("heart.candidates"), "s")
    out["svg.contour.self_s"] = (self_s("svg.contour"), "s")
    out["svg.contour.points"] = (
        children.get(("kernel.poly_eval", "svg.contour"), 0) / passes,
        "count",
    )
    out["svg.segments"] = (sum(tracer.results["svg.contour"]) / passes, "count")
    out["svg.emit.self_s"] = (self_s("svg.emit"), "s")
    svg_bytes = sum(
        len(outcome.data)
        for op, outcome in zip(workload.ops, untraced.first)
        if op.group in SVG_GROUPS and outcome is not None
    )
    out["svg.bytes"] = (svg_bytes, "bytes")
    out["cli.import_s"] = (cli_import_s, "s")
    main_self = cli_probe_self_s if cli_probe_self_s is not None else self_s("cli.main")
    out["cli.main.self_s"] = (main_self, "s")
    out["trace.overhead_s"] = (traced_pass_s - untraced.pass_s(), "s")
    out["trace.overhead_ratio"] = (traced.pass_rel() / untraced.pass_rel() - 1, "ratio")
    out["trace.spans"] = (tracer.span_count() / passes, "count")
    return out


def predictions(name, metrics):
    """The three claims the benchmark was built to test, with their values."""
    lines = []
    if name == "subdivide":
        share = metrics["certify.bernstein_share"][0]
        sign_s = metrics["certify.sign.total_s"][0]
        inclusive = metrics["kernel.bernstein.total_s"][0] / sign_s if sign_s else 0.0
        verdict = "confirmed" if share > 0.5 else "REFUTED"
        lines.append(
            f"prediction: Bernstein self time > half of certify.sign time on "
            f"subdivide: {verdict} ({share:.3f}; {inclusive:.3f} with its "
            f"polynomial products)"
        )
    if name == "refute":
        share = metrics["certify.witness_share"][0]
        verdict = "confirmed" if share > 0.5 else "REFUTED"
        lines.append(
            f"prediction: the witness search dominates refute (> half of a "
            f"pass): {verdict} ({share:.3f})"
        )
    if name == "proof":
        boxes = metrics["certify.boxes"][0]
        depth = metrics["certify.depth_max"][0]
        verdict = "confirmed" if boxes == 16 and depth == 0 else "REFUTED"
        lines.append(
            f"prediction: certify.boxes = 16 and depth 0 on proof: {verdict} "
            f"(boxes {boxes:g}, depth {depth})"
        )
    return lines


def _emit(metrics, detail, attempted, failed, lines, result_path):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=2)
        handle.write("\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }
    print(json.dumps(result))


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "tiltcert" / "__init__.py").is_file():
        print(f"bench: no tiltcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s = None if args.trace else measure_setup(workloads, args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed, str(ROOT), str(OUT_DIR))
    untraced = Measurement(workload.ops)
    lines = []
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while untraced.passes < MIN_PASSES or time.perf_counter() < deadline:
            untraced.run_pass()
        measurements = [untraced]
    else:
        # Traced and untraced passes alternate, so that drift in machine
        # speed falls on both sides of the overhead figure alike.
        tracer = tracing.Tracer()
        traced = Measurement(workload.ops)
        while traced.passes < 1 or (
            time.perf_counter() < deadline and tracer.span_count() < MAX_SPANS
        ):
            untraced.run_pass()
            with tracer.installed():
                traced.run_pass(tracer, reference=untraced.keys)
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
        measurements = [untraced, traced]
        probe_argv = []
        if args.workload == "proof":
            probe_argv = ["verify", "--json", str(OUT_DIR / "probe.json")]
        cli_import_s, cli_probe_self = probe_cli(workloads, probe_argv)
        metrics = per_layer(
            workload,
            untraced,
            traced,
            tracer,
            cli_import_s,
            cli_probe_self if probe_argv else None,
        )
        lines.extend(predictions(args.workload, metrics))
        lines.append(
            f"certify.hull_settled_ratio base: {metrics['certify.box.calls'][0]:g} "
            f"box calls per pass"
        )
    attempted, failed, problems = judge(workload, measurements)
    if not args.trace:
        metrics = end_to_end(workload, untraced, setup_s)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": [m.passes for m in measurements],
        "fingerprint": fingerprint(workload, untraced),
        "status_mix": status_mix(workload, untraced),
        "error_rate": failed / attempted,
        "problems": problems,
        "named": {
            k: {"value": v, "unit": u} for k, (v, u) in named_metrics(workload, untraced).items()
        },
    }
    lines[:0] = [f"workload {args.workload}, seed {args.seed}, passes {detail['passes']}"]
    lines.append(f"fingerprint {detail['fingerprint']}")
    lines.append(f"status mix {detail['status_mix']}")
    lines.append(f"error_rate = {detail['error_rate']:.6g} ({failed} of {attempted})")
    lines.extend(f"problem: {p}" for p in problems)
    lines.extend(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in detail["named"].items())
    _emit(metrics, detail, attempted, failed, lines, OUT_DIR / f"result-{stem}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
