"""Command-line front end.

Subcommands: pade, chordal, rationalize, universality, cascade, moments,
volterra, divergence.  Outputs are deterministic: identical flags and
config produce byte-identical files (floats are written with Python's
shortest round-trip repr).

Exit codes: 0 success, 2 precondition error, 3 numeric failure, 64 usage.
Text that does not parse (a number, a spec, the config file, an object in
it or in a domain file of the wrong shape) is a usage error.  A value out
of its range is a precondition error, whether it raises a typed
PreconditionError or the ValueError or ArithmeticError of its first use.

The argument parser is built once per process, on the first main() call,
and reused by every later call; nothing in it is mutated by parsing, and
usage text is formatted when it is printed.

A JSON config file (--config) may define named objects referenced by
flags: rational functions under "rationals" (numerator/denominator
coefficient arrays of [re, im] pairs), domains under "domains" and
samples under "samples".

Moments on a circle use a doubling trapezoidal rule and the divergence
experiment the adaptive Gauss-Legendre engine; a rule that does not
converge, or meets a value that is not finite, raises QuadratureError,
which exits with code 3.  The moments of a rational are taken on the
circle that construct.moment_circle picks for --n moments, which encloses
the same roots of the denominator; a pole on the given circle raises
PoleOnBoundaryError, exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .blowup import arg_cauchy_gaps, divergence_experiment
from .construct import antiderivative_cascade, moment_circle, universality_pipeline, volterra_apply
from .domains import CirclePath, DiscDomain, DomainSpec, moment_test
from .errors import NumericError, PadeLabError, PreconditionError
from .pade import pade_construct
from .samples import CompactSample, circle_sample, disc_grid_sample, segment_sample
from .series import Polynomial, RationalFunction, modulus, partial_sum, series_builtin, values_on
from .sphere import chordal, rationalize_coefficients, sup_chordal

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError; takes options by their full names only, so a
    removed or renamed option cannot silently match another one's prefix."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# --- formatting ---------------------------------------------------------------


def format_float(x: float) -> str:
    """Shortest decimal that round-trips; integral floats keep a trailing .0."""
    return repr(float(x))


def format_complex(z: complex) -> str:
    return f"{format_float(z.real)}{'+' if z.imag >= 0 else '-'}{format_float(abs(z.imag))}j"


def emit_report(rows: list[dict], columns: list[str], fmt: str, path: str | None):
    """Write rows as CSV (fixed column order) or JSON; '-' or None is stdout."""
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(rows, indent=2, default=_json_default) + "\n"
    else:
        raise UsageError(f"unknown format {fmt!r}")
    _write_text(text, path)


def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, complex):
        return format_complex(value)
    return str(value)


def _json_default(value):
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"not serializable: {type(value)}")


def _write_text(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def write_svg_plot(xs, ys, path: str, x_label: str, y_label: str):
    """Minimal SVG polyline plot; deterministic output."""
    width, height, pad = 480, 320, 40
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    def sx(x):
        return pad + (x - xmin) / xspan * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - ymin) / yspan * (height - 2 * pad)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<polyline points="{points}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        + "".join(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="black"/>\n'
            for x, y in zip(xs, ys)
        )
        + f'<text x="{width / 2:.0f}" y="{height - 8}" text-anchor="middle" font-size="12">{x_label}</text>\n'
        f'<text x="12" y="{height / 2:.0f}" font-size="12" transform="rotate(-90 12 {height / 2:.0f})" '
        f'text-anchor="middle">{y_label}</text>\n</svg>\n'
    )
    _write_text(svg, path)


# --- config objects -------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config {path!r} is not a JSON object")
    return config


def parse_complex(text: str) -> complex:
    """A complex number as ``complex()`` reads it, with a trailing ``i`` for
    ``j``; ``inf``, ``-inf``, ``infj`` and ``nan`` are the point at infinity."""
    text = text.replace(" ", "")
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise UsageError(f"not a complex number: {text!r}") from None


def _spec_numbers(spec: str, text: str) -> list[float]:
    """The comma-separated numbers ``text`` of a sample, cycle or domain spec."""
    try:
        return [float(x) for x in text.split(",")] if text else []
    except ValueError:
        raise UsageError(f"bad spec {spec!r}") from None


def _from_data(from_data, data, what: str):
    """``from_data(data)``; an object of the wrong shape is a usage error naming ``what``."""
    try:
        return from_data(data)
    except (KeyError, IndexError, TypeError) as exc:
        raise UsageError(f"{what} is malformed: {type(exc).__name__}: {exc}") from None


def _from_config(from_data, config: dict, section: str, spec: str, what: str):
    """``from_data`` of the object that ``config:name`` names in a config section."""
    table = config.get(section, {})
    if not isinstance(table, dict):
        raise UsageError(f"config section {section!r} is not an object")
    data = table.get(spec[len("config:"):])
    if data is None:
        raise UsageError(f"{what} not found in config")
    return _from_data(from_data, data, what)


BUILTIN_RATIONALS = {
    "one-over-z": lambda: RationalFunction(Polynomial([1.0]), Polynomial([0.0, 1.0])),
    "one-over-z2": lambda: RationalFunction(Polynomial([1.0]), Polynomial([0.0, 0.0, 1.0])),
    "one-over-z-minus-2": lambda: RationalFunction(Polynomial([1.0]), Polynomial([-2.0, 1.0])),
    "pi-z-plus-1-over-z-minus-2": lambda: RationalFunction(
        Polynomial([1.0, math.pi]), Polynomial([-2.0, 1.0])
    ),
}


def resolve_rational(name: str, config: dict) -> RationalFunction:
    if name.startswith("config:"):
        return _from_config(RationalFunction.from_data, config, "rationals", name, f"rational {name!r}")
    if name in BUILTIN_RATIONALS:
        return BUILTIN_RATIONALS[name]()
    raise UsageError(f"unknown rational {name!r}")


def resolve_sample(spec: str, config: dict) -> CompactSample:
    """Sample spec: 'circle:cx,cy,r,n', 'disc-grid:cx,cy,r,side', 'segment:ax,ay,bx,by,n' or 'config:name'."""
    if spec.startswith("config:"):
        return _from_config(CompactSample.from_data, config, "samples", spec, f"sample {spec!r}")
    kind, _, rest = spec.partition(":")
    parts = _spec_numbers(spec, rest)
    if kind == "circle" and len(parts) == 4:
        return circle_sample(complex(parts[0], parts[1]), parts[2], int(parts[3]))
    if kind == "disc-grid" and len(parts) == 4:
        return disc_grid_sample(complex(parts[0], parts[1]), parts[2], int(parts[3]))
    if kind == "segment" and len(parts) == 5:
        return segment_sample(complex(parts[0], parts[1]), complex(parts[2], parts[3]), int(parts[4]))
    raise UsageError(f"bad sample spec {spec!r}")


def resolve_cycle(spec: str):
    if spec == "unit-circle":
        return CirclePath(0.0, 1.0)
    kind, _, rest = spec.partition(":")
    if kind == "circle":
        parts = _spec_numbers(spec, rest)
        if len(parts) == 3:
            return CirclePath(complex(parts[0], parts[1]), parts[2])
    raise UsageError(f"bad cycle spec {spec!r}")


def resolve_domain(spec: str, config: dict) -> DomainSpec:
    """Domain spec: 'config:name', a JSON file path, or 'disc:cx,cy,r'."""
    if spec.startswith("config:"):
        return _from_config(DomainSpec.from_data, config, "domains", spec, f"domain {spec!r}")
    if spec.startswith("disc:"):
        parts = _spec_numbers(spec, spec[len("disc:"):])
        if len(parts) == 3:
            return DiscDomain(complex(parts[0], parts[1]), parts[2])
        raise UsageError(f"bad domain spec {spec!r}")
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read domain file {spec!r}: {exc}") from exc
    return _from_data(DomainSpec.from_data, data, f"domain file {spec!r}")


MOMENT_FUNCTIONS = {
    "one-over-z": lambda z: 1.0 / z,
    "one-over-z2": lambda z: 1.0 / (z * z),
    "exp": lambda z: np.exp(z),
}


# --- subcommands ----------------------------------------------------------------


def cmd_pade(args, config) -> int:
    series = series_builtin(args.builtin, parse_complex(args.center), args.p + args.q)
    approx = pade_construct(series, args.p, args.q)
    _write_text(json.dumps(approx.to_data(), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_chordal(args, config) -> int:
    if args.a is not None and args.b is not None:
        value = chordal(parse_complex(args.a), parse_complex(args.b))
        _write_text(json.dumps({"chordal": value}, default=_json_default) + "\n", args.out)
        return EXIT_OK
    if args.f and args.g and args.sample:
        f = resolve_rational(args.f, config)
        g = resolve_rational(args.g, config)
        sample = resolve_sample(args.sample, config)
        sup = sup_chordal(f, g, sample)
        _write_text(
            json.dumps(
                {"sup_chordal": sup.value, "at": [sup.at.real, sup.at.imag], "mesh": sup.mesh},
                default=_json_default,
            )
            + "\n",
            args.out,
        )
        return EXIT_OK
    raise UsageError("chordal needs either --a/--b or --f/--g/--sample")


def cmd_rationalize(args, config) -> int:
    rational = resolve_rational(args.rational, config)
    sample = resolve_sample(args.sample, config)
    rows, exact = [], None
    for bits in args.bits:
        rounded = rationalize_coefficients(rational, bits)
        if exact is None:  # after the first rounding, whose errors come first
            exact = values_on(rational, sample.points)
        sup = sup_chordal(exact, rounded, sample)
        rows.append({"bits": bits, "sup_chordal": sup.value, "mesh": sup.mesh})
    emit_report(rows, ["bits", "sup_chordal", "mesh"], args.format, args.out)
    return EXIT_OK


def cmd_universality(args, config) -> int:
    target = resolve_rational(args.target, config)
    smooth = Polynomial([0.0, 0.0, 1.0])  # z^2
    k_sample = resolve_sample(args.k_sample, config)
    grid = resolve_sample(args.grid, config)
    result = universality_pipeline(
        target,
        smooth,
        k_sample,
        grid,
        grid,
        parse_complex(args.k_center),
        args.k_radius,
        args.s,
        max_degree=args.max_degree,
        tol=args.tol,
    )
    cert = result.certificate
    _write_text(json.dumps(cert.to_data(), indent=2, default=_json_default) + "\n", args.out)
    if args.csv_out:
        rows = [{"center": r.center, "hankel_abs": abs(r.hankel), "normal": cert.all_normal} for r in cert.records]
        emit_report(rows, ["center", "hankel_abs", "normal"], "csv", args.csv_out)
    return EXIT_OK


def cmd_cascade(args, config) -> int:
    if args.grid < 10:
        raise PreconditionError("--grid must be at least 10")
    if not 0.0 < args.eps < math.inf:
        raise PreconditionError(f"--eps must be positive and finite, got {args.eps!r}")
    n = args.n
    series = series_builtin("exp", 0.0, args.pn_degree)
    top = partial_sum(series, args.pn_degree)
    derivative_values = [1.0] * n  # every derivative of exp at 0
    cascade = antiderivative_cascade(derivative_values, top, 0.0, n)
    domain = resolve_domain(args.domain, config)
    radii = np.linspace(0.1, 1.0, 10)
    angles = 2.0 * np.pi * np.arange(args.grid // 10) / max(1, args.grid // 10)
    grid = (radii[:, None] * np.exp(1j * angles)).ravel()
    m = domain.path_budget
    rows = []
    level, reference = cascade, np.exp(grid)
    for k in range(0, n + 1):
        sup_err = np.max(modulus(level(grid) - reference))
        bound = args.eps / (m + 1.0) ** k
        rows.append({"k": k, "sup_error": float(sup_err), "bound": bound,
                     "within": bool(sup_err < bound)})
        level = level.derivative()
    emit_report(rows, ["k", "sup_error", "bound", "within"], args.format, args.out)
    return EXIT_OK if all(r["within"] for r in rows) else EXIT_NUMERIC


def cmd_moments(args, config) -> int:
    if args.f in MOMENT_FUNCTIONS:
        f = MOMENT_FUNCTIONS[args.f]
    else:
        f = resolve_rational(args.f, config)
    cycle = resolve_cycle(args.cycle)
    if isinstance(f, RationalFunction):
        # the same moments on a circle far from every pole, where the rule converges fast
        cycle = moment_circle(f, cycle, args.n)
    moments = moment_test(f, cycle, args.n)
    rows = [{"i": i, "moment": m, "abs": abs(m)} for i, m in enumerate(moments)]
    emit_report(rows, ["i", "moment", "abs"], args.format, args.out)
    return EXIT_OK


def cmd_volterra(args, config) -> int:
    f = series_builtin(args.f, 0.0, args.order)
    g = series_builtin(args.g, 0.0, args.order)
    result = volterra_apply(f, g)
    _write_text(json.dumps(result.to_data(), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_divergence(args, config) -> int:
    if not args.eps_min > 0.0:
        raise PreconditionError("--eps-min must be positive")
    if not args.eps_min <= args.eps_max:
        raise PreconditionError("--eps-min must not exceed --eps-max")
    if args.per_decade < 1:
        raise PreconditionError("--per-decade must be at least 1")
    decades = int(round(math.log10(args.eps_max / args.eps_min)))
    count = decades * args.per_decade + 1
    eps_list = [
        args.eps_max * (args.eps_min / args.eps_max) ** (i / (count - 1))
        for i in range(count)
    ] if count > 1 else [args.eps_max]
    report = divergence_experiment(eps_list, args.t0)
    emit_report(report.to_rows(), ["eps", "I", "J", "comparator", "arg_h"], "csv", args.out)
    if args.svg:
        xs = [math.log(math.log(1.0 / r.eps)) for r in report.rows]
        ys = [r.I for r in report.rows]
        write_svg_plot(xs, ys, args.svg, "lnln(1/eps)", "I")
    if args.gaps:
        gaps = arg_cauchy_gaps(args.gaps)
        emit_report(
            [{"k": k, "gap": g} for k, g in gaps], ["k", "gap"], "csv", args.gaps_out
        )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="padelab", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="JSON config with named objects")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("pade", help="construct a Pade approximant of a builtin series")
    p.add_argument("--builtin", required=True, choices=["exp", "log1m", "geometric"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--center", default="0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pade)

    p = sub.add_parser("chordal", help="chordal distance of points or sampled sup of two rationals")
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--sample", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chordal)

    p = sub.add_parser("rationalize", help="dyadic coefficient rounding at several precisions")
    p.add_argument("--rational", default="pi-z-plus-1-over-z-minus-2")
    p.add_argument("--sample", default="circle:0,0,1,720")
    p.add_argument("--bits", type=int, nargs="+", default=[8, 16, 24, 32, 40])
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rationalize)

    p = sub.add_parser("universality", help="run the certified universality pipeline")
    p.add_argument("--target", default="one-over-z-minus-2")
    p.add_argument("--k-sample", default="circle:2,0,0.25,64")
    p.add_argument("--grid", default="disc-grid:0,0,0.5,9")
    p.add_argument("--k-center", default="2")
    p.add_argument("--k-radius", type=float, default=0.25)
    p.add_argument("--s", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=40)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_universality)

    p = sub.add_parser("cascade", help="anchored antiderivative cascade error levels")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--pn-degree", type=int, default=12)
    p.add_argument("--domain", default="disc:0,0,1",
                   help="working domain: disc:cx,cy,r, config:name, or a JSON file")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("moments", help="contour moments over a closed cycle")
    p.add_argument("--f", required=True)
    p.add_argument("--cycle", default="unit-circle")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("volterra", help="coefficient Volterra operator on builtin series")
    p.add_argument("--f", default="exp", choices=["exp", "log1m", "geometric"])
    p.add_argument("--g", default="exp", choices=["exp", "log1m", "geometric"])
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_volterra)

    p = sub.add_parser("divergence", help="partial-integral blow-up experiment")
    p.add_argument("--eps-min", type=float, default=1e-8)
    p.add_argument("--eps-max", type=float, default=1e-2)
    p.add_argument("--per-decade", type=int, default=1)
    p.add_argument("--t0", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--gaps", type=int, default=0,
                   help="also emit arg Cauchy gaps up to this k")
    p.add_argument("--gaps-out", default=None)
    p.set_defaults(func=cmd_divergence)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first main() call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        config = load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return EXIT_PRECONDITION
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except PadeLabError as exc:  # pragma: no cover - catch-all for new subtypes
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
