"""The four workloads, as lists of operations the runner times one by one.

proof      the shipped proof: `verify_all()` in process and
           `tiltcert verify --json` in a fresh interpreter.  Only 16 root
           boxes, depth 0: the bypass case for any certifier or Bernstein
           change; its time goes to polynomial construction and the bg check.
subdivide  a fixed reference claim, then the seeded tight corpus (see
           corpus.py): deep bisection, Bernstein-bound.
refute     `verify_all` on the widened region (failed), `verify_all` with
           max_depth=0 (inconclusive, full witness grid per item), then the
           side-dependent and random claims: witness search and `poly_eval`.
figures    `tiltcert plot wall` over the README region at grids 32 and 64,
           and `plot zvectors`: grid evaluation plus SVG emission.

Every call into tiltcert looks its function up on the module at call time
(`suite.verify_all`, `certify.certify_sign`, `cli.main`), so the tracer's
patches see the benchmark's own calls too.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from tiltcert import certify, cli, suite
from tiltcert.kernel import RationalInterval, format_rational

import corpus
import oracle

WIDENED_ARG = "-1/2:1/2,0:1/3"
WIDENED = certify.Region(
    beta=RationalInterval(Fraction(-1, 2), Fraction(1, 2)),
    alpha=RationalInterval(Fraction(0), Fraction(1, 3)),
    alpha_open=(True, True),
)
WALL_REGION = "0:1,0:3/5"
WALL_GRIDS = (32, 64)
CLI_SNIPPET = "import sys; from tiltcert.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120
HEADLINE_COPIES = 3


@dataclass
class Op:
    label: str
    group: str
    call: object  # () -> outcome; the only part that is timed
    key: object  # outcome -> str, the outcome's fingerprint material
    check: object  # outcome -> error message or None


@dataclass
class Workload:
    name: str
    ops: list
    # The group whose latency is op_p10_ms: one operation that does not
    # depend on the seed, since latency quantiles over a seeded corpus move
    # with the corpus.
    headline: str
    # (label, () -> error or None): checks run once, after timing.
    after: list = field(default_factory=list)


@dataclass(frozen=True)
class ProcessResult:
    code: int
    stdout: str
    data: bytes


def sha(data):
    return hashlib.sha256(data).hexdigest()


def python_env(root):
    env = dict(os.environ)
    paths = [os.path.join(root, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_cli(root, args, out_path=None):
    """`tiltcert ARGS` in a fresh interpreter, as the console script runs it."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SNIPPET, *args],
        cwd=root,
        env=python_env(root),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    data = b""
    if out_path is not None and proc.returncode in (0, 1):
        with open(out_path, "rb") as handle:
            data = handle.read()
    return ProcessResult(proc.returncode, proc.stdout, data)


def run_main(args, out_path):
    """`tiltcert ARGS` through `cli.main` in this process."""
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        code = cli.main(list(args))
    with open(out_path, "rb") as handle:
        data = handle.read()
    return ProcessResult(code, captured.getvalue(), data)


def cert_key(cert):
    witness = "-"
    if cert.witness is not None:
        witness = ",".join(format_rational(x) for x in cert.witness)
    return f"{cert.status}|{witness}|{cert.boxes}|{cert.depth}"


def report_key(report):
    return report.to_json()


def result_key(result):
    return f"{result.code}|{sha(result.data)}"


def _claim_op(label, group, claim, region, depth):
    return Op(
        label=label,
        group=group,
        call=lambda: certify.certify_sign(claim, region, depth),
        key=cert_key,
        check=lambda cert: oracle.check_certificate(claim, region, cert),
    )


def _claim_ops(entries):
    return [_claim_op(f"claim-{k:02d}", "claim", *entry) for k, entry in enumerate(entries)]


def _proof(root, seed, out_dir):
    # The shipped proof has no inputs to draw: every seed runs the same job.
    json_path = os.path.join(out_dir, "verify.json")
    expected = []

    def check_cli(result):
        if not expected:
            expected.append((suite.verify_all().to_json() + "\n").encode())
        if result.code != 0:
            return f"tiltcert verify exited {result.code}"
        if result.data != expected[0]:
            return "tiltcert verify --json differs from Report.to_json()"
        return None

    ops = [
        Op(
            "verify_all",
            "verify",
            lambda: suite.verify_all(),
            report_key,
            lambda r: oracle.check_report(r, "certified", certify.default_region(), 55),
        ),
        Op(
            "cli_verify",
            "cli_verify",
            lambda: run_cli(root, ["verify", "--json", json_path], json_path),
            result_key,
            check_cli,
        ),
    ]
    return Workload("proof", ops, headline="verify")


def _spread(op, ops, copies=HEADLINE_COPIES):
    """`ops` with `op` before each of `copies` equal slices: the headline
    operation then gets several samples a pass, spread over the pass."""
    step = -(-len(ops) // copies)
    out = []
    for k in range(0, len(ops), step):
        out.append(op)
        out.extend(ops[k : k + step])
    return out


def _subdivide(root, seed, out_dir):
    reference = _claim_op("reference", "reference", *corpus.reference_claim())
    ops = _spread(reference, _claim_ops(corpus.subdivide_corpus(seed)))
    return Workload("subdivide", ops, headline="reference")


def _cli_exit_check(root, args, aggregate):
    def check():
        result = run_cli(root, args)
        last = result.stdout.strip().splitlines()[-1:] or [""]
        if result.code != 1 or last[0] != f"aggregate: {aggregate}":
            return f"tiltcert {' '.join(args)}: exit {result.code}, {last[0]!r}"
        return None

    return check


def _refute(root, seed, out_dir):
    widened = Op(
        "widened",
        "widened",
        lambda: suite.verify_all(region=WIDENED),
        report_key,
        lambda r: oracle.check_report(r, "failed", WIDENED),
    )
    nosubdiv = Op(
        "nosubdiv",
        "nosubdiv",
        lambda: suite.verify_all(max_depth=0),
        report_key,
        lambda r: oracle.check_report(r, "inconclusive", certify.default_region()),
    )
    ops = _spread(widened, [nosubdiv] + _claim_ops(corpus.refute_corpus(seed)))
    after = [
        ("cli_widened", _cli_exit_check(root, ["verify", "--region", WIDENED_ARG], "failed")),
        ("cli_nosubdiv", _cli_exit_check(root, ["verify", "--max-depth", "0"], "inconclusive")),
    ]
    return Workload("refute", ops, headline="widened", after=after)


def _check_svg(result, walls):
    if result.code != 0:
        return f"plot exited {result.code}"
    try:
        segments = oracle.svg_segments(result.data)
    except oracle.ET.ParseError as err:
        return f"SVG does not parse: {err}"
    if walls and segments == 0:
        return "wall plot has no segments"
    return None


def _figures(root, seed, out_dir):
    ops = []
    for grid in WALL_GRIDS:
        path = os.path.join(out_dir, f"wall{grid}.svg")
        args = (
            "plot", "wall", "--chern1", "O", "--chern2", "O(1)",
            "--grid", str(grid), "--region", WALL_REGION, "-o", path,
        )
        ops.append(
            Op(
                f"wall{grid}",
                f"wall{grid}",
                lambda a=args, p=path: run_main(a, p),
                result_key,
                lambda r: _check_svg(r, walls=True),
            )
        )
    alpha, beta = corpus.zvectors_point(seed)
    path = os.path.join(out_dir, "zvectors.svg")
    args = ("plot", "zvectors", "--alpha", alpha, "--beta", beta, "-o", path)
    ops.append(
        Op(
            "zvectors",
            "zvectors",
            lambda: run_main(args, path),
            result_key,
            lambda r: _check_svg(r, walls=False),
        )
    )
    return Workload("figures", ops, headline=f"wall{WALL_GRIDS[-1]}")


WORKLOADS = {
    "proof": _proof,
    "subdivide": _subdivide,
    "refute": _refute,
    "figures": _figures,
}


def build(name, seed, root, out_dir):
    return WORKLOADS[name](root, seed, out_dir)
