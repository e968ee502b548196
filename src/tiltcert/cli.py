"""Command-line frontend: catalog and slope tables, the verification suite
with JSON reports, the exact degree-3 margin on the nu = 0 locus, and SVG
figures.

Exit codes: 0 success (and aggregate certified for `verify`), 1 verification
failure or inconclusive, 2 usage or input errors.
"""

import argparse
import re
import sys
from contextlib import nullcontext
from functools import lru_cache

from .certify import DEFAULT_MAX_DEPTH, default_region
from .chern import CATALOG, catalog_lookup, load_chern
from .heart import reduce_candidates, skyscraper_candidates
from .kernel import (
    RationalInterval,
    format_rational,
    parse_rational,
    poly_format,
)
from .suite import verify_all
from .svg import MIN_GRID, emit_wall_svg, emit_zvectors_svg
from .tilt import (
    S_DEFAULT,
    TiltParams,
    central_charge,
    lambda_slope,
    mu,
    nu,
    nu_zero_locus,
    twist,
)


class _Parser(argparse.ArgumentParser):
    """Parser that accepts negative rationals like -1/4 as flag values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?(?:[:,]-?\d+(/\d+)?)*$"
        )


def _rational_arg(text):
    try:
        return parse_rational(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _bounded_int(lo, hi):
    """argparse type for an integer size in [lo, hi]."""

    def parse(text):
        # int() would also take '1_6', ' 16 ' and non-ASCII digits.
        if not re.fullmatch(r"[+-]?[0-9]+", text):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be between {lo} and {hi}, got {value}")
        return value

    return parse


def _region_arg(text):
    parts = text.split(",")
    try:
        if len(parts) != 2:
            raise ValueError(f"got {len(parts)} interval{'s' * (len(parts) > 1)}, need 2")
        ends = [part.split(":") for part in parts]
        for part, pair in zip(parts, ends):
            if len(pair) != 2:
                raise ValueError(f"interval {part!r} needs exactly one ':'")
        beta_iv, alpha_iv = (RationalInterval(*map(parse_rational, pair)) for pair in ends)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected blo:bhi,alo:ahi ({err})")
    for name, iv in (("beta", beta_iv), ("alpha", alpha_iv)):
        if iv.width == 0:
            raise argparse.ArgumentTypeError(f"{name} interval {iv} has zero width")
    if alpha_iv.lo < 0:
        raise argparse.ArgumentTypeError(
            f"alpha interval {alpha_iv} starts below 0 (tilt needs alpha > 0)"
        )
    return beta_iv, alpha_iv


def _resolve_character(text, flag):
    """Catalog label or a JSON file path."""
    obj = catalog_lookup(text)
    if obj is not None:
        return obj.ch
    try:
        return load_chern(text)
    except (OSError, ValueError) as err:
        raise ValueError(f"{flag}: cannot load character from {text!r} ({err})") from None


def _cmd_catalog(args):
    for obj in CATALOG:
        shift = "-" if obj.heart_shift is None else f"[{obj.heart_shift}]"
        stable = "yes" if obj.mu_stable else "no"
        print(f"{obj.label:6}  ch = {obj.ch}  heart shift {shift:>3}  mu-stable {stable}")
    return 0


def _cmd_slopes(args):
    obj = catalog_lookup(args.object)
    if obj is None:
        raise ValueError(f"--object: unknown label {args.object!r}")
    p = TiltParams(args.alpha, args.beta, args.s)
    twisted = twist(obj.ch, p.beta)
    re, im = central_charge(obj.ch, p)
    print(f"object {obj.label}: ch = {obj.ch}")
    print(f"twisted ch at beta = {format_rational(p.beta)}: {twisted}")
    for name, slope in (("mu", mu), ("nu", nu), ("lambda", lambda_slope)):
        value = slope(obj.ch, p)
        print(f"{name} = {'inf' if value is None else format_rational(value)}")
    print(f"Z = ({format_rational(re)}, {format_rational(im)})")
    return 0


def _region_from_args(args):
    """--region's box with default_region()'s openness, or default_region()."""
    if args.region is None:
        return default_region()
    beta_iv, alpha_iv = args.region
    return default_region()._replace(beta=beta_iv, alpha=alpha_iv)


def _cmd_verify(args):
    region = _region_from_args(args)
    # Open the report file first, so a bad path fails before the suite runs.
    with nullcontext() if args.json is None else open(args.json, "w", encoding="utf-8") as handle:
        report = verify_all(max_depth=args.max_depth, region=region)
        for item in report.items:
            line = f"[{item.status}] {item.name}"
            if item.witness is not None:
                line += (
                    f"  witness alpha = {format_rational(item.witness[0])},"
                    f" beta = {format_rational(item.witness[1])}"
                )
            print(line)
            if item.status != "certified":
                for note in item.notes:
                    print(f"    note: {note}")
        print(f"aggregate: {report.status}")
        if handle is not None:
            handle.write(report.to_json())
            handle.write("\n")
    return 0 if report.status == "certified" else 1


def _cmd_subobjects(args):
    lines = reduce_candidates(skyscraper_candidates())
    print(f"{len(lines)} candidate subobject dimension vectors:")
    for line in lines:
        print(f"  {line}")
    return 0


def _cmd_bg(args):
    ch = _resolve_character(args.chern, "--chern")
    locus = nu_zero_locus(ch, args.s)
    if locus is None:
        print("ch0 = ch1 = 0: nu = inf everywhere, so there is no nu = 0 locus")
    elif ch.ch0 == 0:
        beta, margin = locus
        print(f"nu = 0 on the line beta = {poly_format(beta)}: margin = {poly_format(margin)}")
    else:
        squared, margin = locus
        print(f"nu = 0 on the curve alpha^2 = {poly_format(squared)}, b = beta, where it is > 0")
        print(f"except at beta = {format_rational(ch.ch1 / ch.ch0)}: ch1^B = 0 there, so nu = inf")
        print(f"margin on the curve = {poly_format(margin)}")
    return 0


def _cmd_plot_zvectors(args):
    p = TiltParams(args.alpha, args.beta, args.s)
    emit_zvectors_svg(p, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_plot_wall(args):
    v = _resolve_character(args.chern1, "--chern1")
    w = _resolve_character(args.chern2, "--chern2")
    region = _region_from_args(args)
    emit_wall_svg(v, w, args.grid, args.out, region.beta, region.alpha)
    print(f"wrote {args.out}")
    return 0


@lru_cache(maxsize=1)
def _build_parser():
    """Built once, on the first main() call, when the handlers are bound; defaults are immutable."""
    parser = _Parser(
        prog="tiltcert",
        description="Exact certificates for tilt-stability computations on the quadric threefold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the built-in objects")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("slopes", help="slopes and central charge at a point")
    p.add_argument("--alpha", type=_rational_arg, required=True)
    p.add_argument("--beta", type=_rational_arg, required=True)
    p.add_argument("--s", type=_rational_arg, default=S_DEFAULT)
    p.add_argument("--object", required=True, help="catalog label, e.g. S-1 or O(1)")
    p.set_defaults(handler=_cmd_slopes)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--max-depth", type=_bounded_int(0, 32), default=DEFAULT_MAX_DEPTH)
    p.add_argument("--region", type=_region_arg, default=None, metavar="blo:bhi,alo:ahi")
    p.add_argument("--json", default=None, metavar="PATH", help="write the JSON report here")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("subobjects", help="skyscraper subobject candidates and dominance")
    p.set_defaults(handler=_cmd_subobjects)

    p = sub.add_parser("bg", help="exact degree-3 margin on the nu = 0 locus")
    p.add_argument("--chern", required=True, help="catalog label or JSON path")
    p.add_argument("--s", type=_rational_arg, default=S_DEFAULT)
    p.set_defaults(handler=_cmd_bg)

    p = sub.add_parser("plot", help="emit SVG figures")
    plot_sub = p.add_subparsers(dest="figure", required=True)

    pz = plot_sub.add_parser("zvectors", help="central-charge arrows at a point")
    pz.add_argument("--alpha", type=_rational_arg, required=True)
    pz.add_argument("--beta", type=_rational_arg, required=True)
    pz.add_argument("--s", type=_rational_arg, default=S_DEFAULT)
    pz.add_argument("-o", "--out", default="zvectors.svg")
    pz.set_defaults(handler=_cmd_plot_zvectors)

    pw = plot_sub.add_parser("wall", help="numerical wall contour between two characters")
    pw.add_argument("--chern1", required=True, help="catalog label or JSON path")
    pw.add_argument("--chern2", required=True, help="catalog label or JSON path")
    pw.add_argument("--grid", type=_bounded_int(MIN_GRID, 512), default=64)
    pw.add_argument("--region", type=_region_arg, default=None, metavar="blo:bhi,alo:ahi")
    pw.add_argument("-o", "--out", default="wall.svg")
    pw.set_defaults(handler=_cmd_plot_wall)

    return parser


def main(argv=None):
    """Entry point; returns the exit code, usage errors and --help included."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
