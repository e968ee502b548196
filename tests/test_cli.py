"""Command-line interface tests: every subcommand end to end, the exit-code
contract (0 certified / 1 not certified / 2 usage or input error), negative
rational flag parsing, JSON report files, and the emitted SVG figures."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from pathlib import Path

import pytest

import tiltcert
from tiltcert.cli import main
from tiltcert.chern import catalog_lookup
from tiltcert.kernel import format_rational
from tiltcert.suite import verify_all

SVG_NS = "{http://www.w3.org/2000/svg}"


def _svg_elements(path, cls):
    root = ET.parse(path).getroot()
    return [el for el in root.iter() if el.get("class") == cls]


def test_catalog_lists_all_objects(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 6
    for label in ("O(-1)", "S(-1)", "O", "O(1)", "S", "k(x)"):
        assert any(line.startswith(label) for line in lines)
    assert any("heart shift [3]" in line for line in lines)
    assert any("mu-stable no" in line for line in lines)


def test_slopes_handles_negative_rational_flags(capsys):
    code = main(
        ["slopes", "--object", "S-1", "--alpha", "1/4", "--beta", "-1/4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "object S(-1): ch = (2, -1, 0, 1/6)" in out
    assert "mu = -1" in out
    assert "nu = 2" in out
    assert "lambda = -1" in out
    assert "Z = (-1/8, -1/8)" in out


def test_slopes_unknown_object_is_usage_error(capsys):
    assert main(["slopes", "--object", "nope", "--alpha", "1/4", "--beta", "0"]) == 2
    assert capsys.readouterr().err == "error: --object: unknown label 'nope'\n"


def test_slopes_rejects_nonpositive_alpha(tmp_path, capsys):
    assert main(["slopes", "--object", "O", "--alpha", "0", "--beta", "0"]) == 2
    assert "must be positive" in capsys.readouterr().err
    out = tmp_path / "z.svg"
    assert main(["plot", "zvectors", "--alpha", "0", "--beta", "0", "--out", str(out)]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_verify_default_certified(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "[certified] resolution alternating sum"
    assert lines[-1] == "aggregate: certified"
    assert sum(1 for line in lines if line.startswith("[certified]")) == 55


def test_verify_json_report_is_stable(tmp_path, capsys):
    first = tmp_path / "report1.json"
    second = tmp_path / "report2.json"
    assert main(["verify", "--json", str(first)]) == 0
    assert main(["verify", "--json", str(second)]) == 0
    capsys.readouterr()
    blob1 = first.read_bytes()
    blob2 = second.read_bytes()
    assert blob1 == blob2
    assert blob1.decode() == verify_all().to_json() + "\n"
    payload = json.loads(blob1)
    assert payload["status"] == "certified"
    assert len(payload["items"]) == 55


def test_verify_widened_region_fails_with_witness(capsys):
    assert main(["verify", "--region", "-1/2:1/2,0:1/3"]) == 1
    out = capsys.readouterr().out
    assert "aggregate: failed" in out
    assert "witness alpha = " in out
    assert "[failed]" in out


def test_verify_max_depth_zero_inconclusive(capsys):
    assert main(["verify", "--max-depth", "0"]) == 1
    out = capsys.readouterr().out
    assert "aggregate: inconclusive" in out
    assert "note: subdivision disabled" in out
    assert "[failed]" not in out


def test_verify_json_bad_path_fails_before_the_suite_runs(tmp_path, capsys):
    missing = tmp_path / "missing" / "dir" / "r.json"
    assert main(["verify", "--json", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2]")
    assert not missing.parent.exists()


# The bytes of the reports and figures that users diff across releases.
BYTE_CONTRACTS = [
    (
        ["verify", "--json"],
        "89489cf6b3045d28d09da1a14ccf2bb26c4256586b8df78c5d4ab1c07c2d4e2f",
    ),
    (
        ["verify", "--region", "-1/2:1/2,0:1/3", "--json"],
        "ca085d1c1926dcbe371a13da5bd2954f860630dc0a6f0ecd5971367961648444",
    ),
    (
        ["verify", "--max-depth", "0", "--json"],
        "36a72e2b1356ad8b220cd9c4dceb32f3cea03a81237146ab11954be118b0cc82",
    ),
    (
        ["plot", "wall", "--chern1", "O", "--chern2", "O(1)", "--region", "0:1,0:3/5",
         "--grid", "32", "-o"],
        "3495f09aa782b41b9f2a41f6f0317d6dcca5f2d150c506fff3a215646cbb3c6f",
    ),
    (
        ["plot", "wall", "--chern1", "O", "--chern2", "O(1)", "--region", "0:1,0:3/5",
         "--grid", "64", "-o"],
        "21da040bd2a3f1af38a268f6244d2a8490bb0fcb7433fb241744334ffce0fdbe",
    ),
    # The divider is the imaginary axis here (alpha >= -beta) ...
    (
        ["plot", "zvectors", "--alpha", "1/4", "--beta", "-1/8", "-o"],
        "d981165f821d38a0b5c2133482b5eb62d8352068e71e1112499b760b1917d741",
    ),
    # ... and the line through Z(O[1]) here (alpha < -beta).
    (
        ["plot", "zvectors", "--alpha", "1/8", "--beta", "-3/8", "-o"],
        "291842186165bda9ca8fe0de6d3058e15c0d641b8dd27f605980c05125154cde",
    ),
    # A wall away from the README region: negative beta, widths that are not
    # dyadic and an odd grid (32 wall segments).
    (
        ["plot", "wall", "--chern1", "O(1)", "--chern2", "S(-1)", "--region",
         "-1/3:2/7,1/9:5/7", "--grid", "17", "-o"],
        "b42d6b9ff988f867d9b1c749e071797fe5f8f1f1b4d1a6785c5f660581caaad8",
    ),
    # No bisection at depth 0, so the witnesses come from the grid scan:
    # 15 failed items, each with a witness off the polytope vertices.
    (
        ["verify", "--region", "-1:1/3,1/7:2/3", "--max-depth", "0", "--json"],
        "e091fe6fc48c7a05af39aadc4503c5824922a80543e893059ee5cdb374c6c2d1",
    ),
]

# The same contract for the subcommands that print their result.
STDOUT_CONTRACTS = [
    (
        # mu, nu and lambda all +infinity
        ["slopes", "--object", "k(x)", "--alpha", "1/4", "--beta", "0"],
        "aebc41bfab41036e04705e80c23433ca6ed3f68672404bb300f42d6bb76ddf30",
    ),
    (
        ["slopes", "--object", "O", "--alpha", "1/4", "--beta", "0"],
        "9b279056f07d461a81f6200755ea18c612db06f292d2a2698b8fb4aa7e51ea48",
    ),
    (
        ["slopes", "--object", "S-1", "--alpha", "1/4", "--beta", "-1/4"],
        "1c9a68eec46350306a60fbb815308008260ac2a5be221ab7bc6f91a18b8ef4e2",
    ),
    (
        ["catalog"],
        "1260909e53278ec49e33f69b1c9488abce54f26422711cd632f73ebe523ea875",
    ),
    (
        ["subobjects"],
        "1cadce866214cd0747071e38f3e327e91c6c3869589812ed6c43c310f78023cc",
    ),
]


@pytest.mark.parametrize("argv, digest", BYTE_CONTRACTS)
def test_output_bytes_are_pinned(argv, digest, tmp_path, capsys):
    out_path = tmp_path / "out"
    main(argv + [str(out_path)])
    capsys.readouterr()
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", STDOUT_CONTRACTS)
def test_stdout_bytes_are_pinned(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_malformed_region_is_usage_error(capsys):
    assert main(["verify", "--region", "nope"]) == 2
    assert "expected blo:bhi,alo:ahi" in capsys.readouterr().err


@pytest.mark.parametrize(
    "region, problem",
    [
        ("0:1", "got 1 interval, need 2"),
        ("0:1,0:1,0:1", "got 3 intervals, need 2"),
        ("0:1:2,0:1", "interval '0:1:2' needs exactly one ':'"),
        ("0:1,1/3", "interval '1/3' needs exactly one ':'"),
        (",0:1", "interval '' needs exactly one ':'"),
        ("0:1,1:", "not a rational literal: ''"),
    ],
)
def test_malformed_region_names_the_problem(region, problem, capsys):
    assert main(["verify", "--region", region]) == 2
    err = capsys.readouterr().err
    assert f"expected blo:bhi,alo:ahi ({problem})" in err
    assert "unpack" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-depth", "-1"],
        ["verify", "--max-depth", "33"],
        ["bg", "--chern", "unused.json", "--grid", "0"],
        ["bg", "--chern", "unused.json", "--grid", "-3"],
        ["plot", "wall", "--chern1", "O", "--chern2", "O(1)", "--grid", "513"],
    ],
)
def test_size_flags_out_of_range_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "must be between" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-depth", "1_6"],
        ["verify", "--max-depth", " 16 "],
        ["verify", "--max-depth", "\u0661\u0666"],
        ["verify", "--max-depth", "+"],
        ["bg", "--chern", "unused.json", "--grid", "1_6"],
        ["plot", "wall", "--chern1", "O", "--chern2", "O(1)", "--grid", "\uff13\uff12"],
    ],
)
def test_size_flags_reject_malformed_integers(argv, capsys):
    assert main(argv) == 2
    assert "not an integer" in capsys.readouterr().err


def test_subobjects_lists_eleven(capsys):
    assert main(["subobjects"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "11 candidate subobject dimension vectors:"
    assert len(lines) == 12
    assert "  (0,1,0,1): base" in lines
    assert "  (0,2,4,1): base" in lines
    assert any("remove 2 x S(-1)[2]" in line for line in lines)


def test_subobjects_prints_the_suite_coverage_notes(capsys):
    assert main(["subobjects"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    item = next(i for i in verify_all().items if i.name == "skyscraper derivation coverage")
    assert header == f"{len(item.notes)} candidate subobject dimension vectors:"
    assert lines == ["  " + note for note in item.notes]


def _write_character(tmp_path, label, name="probe.json"):
    path = tmp_path / name
    ch = catalog_lookup(label).ch
    payload = {f"ch{k}": format_rational(x) for k, x in enumerate(ch.as_tuple())}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_bg_scan_line_bundle_margin_zero(tmp_path, capsys):
    path = _write_character(tmp_path, "O(1)")
    assert main(["bg", "--chern", path, "--grid", "8"]) == 0
    out = capsys.readouterr().out
    assert "minimum margin = 0" in out
    # every interior scan point sits on the nu = 0 locus with zero margin
    assert out.count("margin = 0") >= 8


def test_bg_accepts_catalog_labels(capsys):
    assert main(["bg", "--chern", "O(1)", "--grid", "8"]) == 0
    out = capsys.readouterr().out
    assert "minimum margin = 0" in out
    assert out.count("margin = 0") >= 8
    assert main(["bg", "--chern", "k(x)", "--grid", "4"]) == 0
    assert "no admissible points in the scan" in capsys.readouterr().out


def test_bg_scan_without_locus(tmp_path, capsys):
    path = _write_character(tmp_path, "k(x)")
    assert main(["bg", "--chern", path, "--grid", "4"]) == 0
    out = capsys.readouterr().out
    assert "no nu = 0 locus" in out
    assert "no admissible points in the scan" in out


def test_bg_missing_file_is_input_error(capsys):
    assert main(["bg", "--chern", "/nonexistent/ch.json"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --chern: cannot load character from '/nonexistent/ch.json'"
    )


@pytest.mark.parametrize(
    "flag, chern1, chern2",
    [("--chern1", "/nonexistent/ch.json", "O"), ("--chern2", "O", "/nonexistent/ch.json")],
)
def test_plot_wall_missing_character_file_is_input_error(flag, chern1, chern2, tmp_path, capsys):
    out_path = tmp_path / "never.svg"
    argv = ["plot", "wall", "--chern1", chern1, "--chern2", chern2, "-o", str(out_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: cannot load character")
    assert not out_path.exists()


def test_bg_malformed_rational_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "newline.json"
    payload = {"ch0": "1\n", "ch1": "0", "ch2": "0", "ch3": "0"}
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["bg", "--chern", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --chern: cannot load character")
    assert "not a rational literal" in err
    assert "Traceback" not in err
    assert main(["slopes", "--object", "O", "--alpha", "1/4\n", "--beta", "0"]) == 2
    assert "not a rational literal" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [[1, 2], "x"], ids=["list", "string"])
def test_bg_non_object_file_is_input_error(payload, tmp_path, capsys):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["bg", "--chern", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --chern: cannot load character")
    assert "character file must hold a JSON object" in err


def _run_cli(*argv):
    """The CLI in a child process whose address space is capped at 512 MB,
    so an unbounded read fails fast instead of exhausting the machine."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(tiltcert.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "tiltcert.cli", *argv],
        capture_output=True, text=True, env=env, check=False, preexec_fn=cap,
    )


def test_bg_deeply_nested_file_is_input_error(tmp_path):
    # A 200 KB file: the size cap refuses it before json.loads sees it.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    done = _run_cli("bg", "--chern", str(path))
    assert done.returncode == 2
    assert done.stderr.startswith("error: --chern: cannot load character")
    assert "longer than 65536 characters" in done.stderr
    assert "Traceback" not in done.stderr


def test_bg_nested_file_under_the_cap_is_input_error(tmp_path, capsys):
    # json.loads recurses once per bracket; 20,000 of them fit in 64 KiB.
    path = tmp_path / "deep.json"
    path.write_text("[" * 20_000 + "]" * 20_000, encoding="utf-8")
    assert main(["bg", "--chern", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --chern: cannot load character") and "nested too deeply" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_bg_endless_file_is_input_error():
    done = _run_cli("bg", "--chern", "/dev/zero")
    assert done.returncode == 2
    assert done.stderr.startswith("error: --chern: cannot load character")
    assert "longer than 65536 characters" in done.stderr
    assert "Traceback" not in done.stderr


def test_bg_rank_zero_class_prints_its_nu_zero_line(tmp_path, capsys):
    # With ch0 = 0, nu = (ch2 - beta*ch1) / (alpha*ch1) is 0 for every alpha
    # on beta = ch2/ch1; there the margin is a polynomial in a alone.
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"ch0": "0", "ch1": "1", "ch2": "-1/4", "ch3": "0"}))
    assert main(["bg", "--chern", str(path)]) == 0
    assert capsys.readouterr().out == "nu = 0 on the line beta = -1/4: margin = 1/3*a^2 + 1/16\n"
    assert main(["bg", "--chern", str(path), "--region", "0:1,0:1"]) == 0
    assert capsys.readouterr().out == "nu = 0 on the line beta = -1/4, outside [0, 1]\n"


def test_plot_zvectors_svg_has_four_arrows(tmp_path, capsys):
    out_path = tmp_path / "z.svg"
    code = main(
        ["plot", "zvectors", "--alpha", "1/4", "--beta", "-1/4", "-o", str(out_path)]
    )
    assert code == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    arrows = _svg_elements(out_path, "zvector")
    assert len(arrows) == 4
    root = ET.parse(out_path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("viewBox") is not None


def test_plot_wall_emits_contour_segments(tmp_path, capsys):
    out_path = tmp_path / "wall.svg"
    code = main(
        [
            "plot",
            "wall",
            "--chern1",
            "O",
            "--chern2",
            "O(1)",
            "--region",
            "0:1,0:3/5",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    segments = _svg_elements(out_path, "wall")
    assert len(segments) > 0


def test_plot_wall_identical_characters_has_no_contour(tmp_path, capsys):
    out_path = tmp_path / "empty.svg"
    code = main(["plot", "wall", "--chern1", "O", "--chern2", "O", "-o", str(out_path)])
    assert code == 0
    capsys.readouterr()
    assert _svg_elements(out_path, "wall") == []


def test_plot_wall_accepts_character_files(tmp_path, capsys):
    path = _write_character(tmp_path, "O(1)", name="oone.json")
    out_path = tmp_path / "wall-from-file.svg"
    code = main(
        [
            "plot",
            "wall",
            "--chern1",
            "O",
            "--chern2",
            path,
            "--region",
            "0:1,0:3/5",
            "-o",
            str(out_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert len(_svg_elements(out_path, "wall")) > 0


@pytest.mark.parametrize(
    "region, axis", [("0:0,0:1", "beta"), ("0:1,0:0", "alpha")]
)
def test_plot_wall_zero_width_region_is_usage_error(region, axis, tmp_path, capsys):
    out_path = tmp_path / "never.svg"
    argv = ["plot", "wall", "--chern1", "O", "--chern2", "O(1)", "--region", region]
    assert main(argv + ["-o", str(out_path)]) == 2
    assert f"{axis} interval [0, 0] has zero width" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["plot", "wall", "--chern1", "O", "--chern2", "O(1)"],
    ],
)
def test_negative_alpha_region_is_usage_error(argv, tmp_path, capsys):
    out_path = tmp_path / "never.svg"
    extra = ["-o", str(out_path)] if argv[0] == "plot" else []
    assert main(argv + ["--region", "0:1,-1:0"] + extra) == 2
    assert "alpha interval [-1, 0] starts below 0" in capsys.readouterr().err
    assert not out_path.exists()


def test_plot_wall_coarse_grid_is_input_error(tmp_path, capsys):
    out_path = tmp_path / "never.svg"
    code = main(
        ["plot", "wall", "--chern1", "O", "--chern2", "O(1)", "--grid", "8", "-o", str(out_path)]
    )
    assert code == 2
    assert "must be between 16 and 512, got 8" in capsys.readouterr().err
    assert not out_path.exists()
