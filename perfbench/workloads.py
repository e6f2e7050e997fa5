"""Seeded operations of the three benchmark workloads, each with its own check.

A workload is a fixed mix of operation kinds whose inputs are drawn from
``random.Random(f"{workload}:{seed}")``.
Every operation carries an independent check written against mathematics
the program does not use (residue theorem, closed-form antiderivatives,
known Padé-table structure, a NumPy re-evaluation of sampled sups), so a
fast wrong answer counts as a failure.

Operations that fail at the baseline are kept in the mix on purpose and
carry a ``Defect``; see ``perfbench/README.md`` for the list.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from padelab import cli, construct, domains, pade
from padelab.series import Polynomial, RationalFunction

WORKLOADS = ("certify", "pade_table", "paths")


class CheckFailed(Exception):
    """An operation returned, but its result is wrong."""


@dataclass(frozen=True)
class Defect:
    """A failure measured at the baseline and kept in the mix.

    A failure counts as this defect only when its message contains
    ``signature``; any other failure of the same operation is unexpected.
    """

    text: str
    signature: str


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_defect: Defect | None = None


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def _cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _exit_ok(result: CliResult):
    _require(result.code == 0, f"exit {result.code}: {result.err.strip()[:200]}")


def _csv_rows(text: str) -> list[dict]:
    header, *lines = text.strip().split("\n")
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


def _close(got: complex, want: complex, rtol: float, atol: float, what: str):
    _require(abs(got - want) <= atol + rtol * abs(want), f"{what}: got {got!r}, want {want!r}")


def _rational_data(num, den) -> dict:
    """Config-file form of a rational with coefficients in powers of z."""
    return {
        "numerator": {"center": [0.0, 0.0], "coefficients": [[c.real, c.imag] for c in map(complex, num)]},
        "denominator": {"center": [0.0, 0.0], "coefficients": [[c.real, c.imag] for c in map(complex, den)]},
    }


def _from_roots(roots) -> np.ndarray:
    """Monic coefficients, lowest power first, of prod (z - r)."""
    return np.ascontiguousarray(np.poly(np.asarray(roots, dtype=complex))[::-1], dtype=complex)


def _horner(coeffs, z):
    """Evaluate sum coeffs[k] z^k on an array of points."""
    acc = np.zeros_like(z, dtype=complex)
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        acc = acc * z + c
    return acc


def _chordal_sup(u: np.ndarray, v: np.ndarray) -> float:
    d = np.abs(u - v) / (np.sqrt(1.0 + np.abs(u) ** 2) * np.sqrt(1.0 + np.abs(v) ** 2))
    return float(np.minimum(d, 1.0).max())


def _sample_points(spec: str) -> tuple[np.ndarray, float]:
    kind, _, rest = spec.partition(":")
    x = [float(v) for v in rest.split(",")]
    if kind == "circle":
        c, r, n = complex(x[0], x[1]), x[2], int(x[3])
        return c + r * np.exp(2j * np.pi * np.arange(n) / n), 2.0 * r * math.sin(math.pi / n)
    if kind == "disc-grid":
        c, half, side = complex(x[0], x[1]), x[2] / math.sqrt(2.0), int(x[3])
        u = np.linspace(-half, half, side)
        xx, yy = np.meshgrid(u, u)
        return (c + xx + 1j * yy).ravel(), 2.0 * half / (side - 1)
    a, b, n = complex(x[0], x[1]), complex(x[2], x[3]), int(x[4])
    return a + np.linspace(0.0, 1.0, n) * (b - a), abs(b - a) / (n - 1)


def _dyadic(c: complex, bits: int) -> complex:
    s = 2.0**bits
    return complex(round(c.real * s) / s, round(c.imag * s) / s)


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The seeded operation set of one workload, in seeded order.

    Writes the config file the CLI operations read.  A run repeats this
    one set, so every operation is timed several times on the same input.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    config_path = workdir / f"{name}-{seed}.json"
    ops, config = {"certify": _certify, "pade_table": _pade_table, "paths": _paths}[name](rng, str(config_path))
    if config:
        config_path.write_text(json.dumps(config))
    rng.shuffle(ops)
    return ops


# --- certify ------------------------------------------------------------------------
#
# The universality targets form a fixed panel.  The number of certificate
# calls a target needs jumps between 1 and 8 under tiny input changes (the
# third-derivative sup is numerically chaotic), so seeded targets would make
# the workload's cost depend on the seed more than on the program.  Targets
# (c0 + c1 z)/(z - a), |a - 2| <= 0.15, are drawn once; the panel pairs two
# of them with K circles of 64 and 128 points, a centre grid of side 7 and s
# in {5, 20}, pairs that need one certificate call.  A pass then stays near
# 2 seconds, so a run times every operation many times.  The seed draws the
# sample-sup operations and the order.

def _panel() -> list[dict]:
    rng = random.Random("certify-panel")
    targets = []
    for _ in range(5):
        a = 2.0 + cmath.rect(rng.uniform(0.0, 0.15), rng.uniform(0.0, 2.0 * math.pi))
        c0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        targets.append(([c0, c1], [-a, 1.0]))
    pairs = [(2, 7, 64, 20), (3, 7, 128, 5)]
    return [{"num": targets[t][0], "den": targets[t][1], "side": side, "k": k_points, "s": s}
            for t, side, k_points, s in pairs]


CERTIFY_PANEL = _panel()
TWO_POLE_DEFECT = Defect("two-pole target: PerturbationDegenerateError after 41 certificate calls",
                         "no perturbation size satisfied")


def _universality_check(s: int):
    def check(result: CliResult):
        _exit_ok(result)
        data = json.loads(result.out)
        _require(data["s"] == s, "certificate reports another s")
        _require(data["e_set_member"] is True and data["t_set_member"] is True,
                 f"membership flags e={data['e_set_member']} t={data['t_set_member']}")
    return check


def _random_target(rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """(c0 + c1 z) / (z - a) with the pole near 2, as in the certify targets."""
    a = 2.0 + cmath.rect(rng.uniform(0.0, 0.15), rng.uniform(0.0, 2.0 * math.pi))
    c0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    c1 = complex(rng.uniform(0.2, 1), rng.uniform(-1, 1))
    return np.array([c0, c1]), np.array([-a, 1.0 + 0j])


def _rationalize_check(num, den, spec: str, bits: list[int]):
    points, mesh = _sample_points(spec)
    exact = _horner(num, points) / _horner(den, points)

    def check(result: CliResult):
        _exit_ok(result)
        rows = _csv_rows(result.out)
        _require([int(r["bits"]) for r in rows] == bits, "bits column differs from the request")
        for row, b in zip(rows, bits):
            rn = [_dyadic(c, b) for c in num]
            rd = [_dyadic(c, b) for c in den]
            lead = rd[-1]
            rounded = _horner(np.array(rn) / lead, points) / _horner(np.array(rd) / lead, points)
            _close(float(row["sup_chordal"]), _chordal_sup(exact, rounded), 1e-6, 1e-13, f"sup at {b} bits")
            _close(float(row["mesh"]), mesh, 1e-12, 0.0, "mesh")
    return check


def _chordal_check(f, g, spec: str):
    points, mesh = _sample_points(spec)
    want = _chordal_sup(_horner(f[0], points) / _horner(f[1], points),
                        _horner(g[0], points) / _horner(g[1], points))

    def check(result: CliResult):
        _exit_ok(result)
        data = json.loads(result.out)
        _close(data["sup_chordal"], want, 1e-9, 1e-15, "sup_chordal")
        _close(data["mesh"], mesh, 1e-12, 0.0, "mesh")
    return check


def _cascade_check(n: int, pn_degree: int):
    def check(result: CliResult):
        _exit_ok(result)
        rows = _csv_rows(result.out)
        _require([int(r["k"]) for r in rows] == list(range(n + 1)), "levels differ from 0..n")
        for row in rows:
            # level k is the Taylor polynomial of exp of degree pn + n - k;
            # on |z| <= 1 its error is below e / (degree + 1)!
            degree = pn_degree + n - int(row["k"])
            limit = math.e / math.factorial(degree + 1) + 1e-14
            _require(float(row["sup_error"]) <= limit, f"level {row['k']} error above the Taylor bound")
            _require(row["within"] == "True", f"level {row['k']} reported outside its bound")
    return check


def _certify(rng: random.Random, config_path: str):
    rationals, ops = {}, []
    base = ["--config", config_path]
    for i, member in enumerate(CERTIFY_PANEL):
        rationals[f"u{i}"] = _rational_data(member["num"], member["den"])
        argv = base + ["universality", "--target", f"config:u{i}",
                       "--k-sample", f"circle:2,0,0.25,{member['k']}",
                       "--grid", f"disc-grid:0,0,0.5,{member['side']}", "--s", str(member["s"])]
        ops.append(Op("universality", lambda a=argv: _cli(a), _universality_check(member["s"])))
    # the 41 certificate calls before PerturbationDegenerateError happen on a
    # 5x5 grid with K = 32 as well; the 2x2 grid with K = 16 keeps this one
    # operation from dominating the workload's time
    rationals["two_pole"] = _rational_data([1.0], _from_roots([1.92, 2.08]))
    argv = base + ["universality", "--target", "config:two_pole", "--k-sample", "circle:2,0,0.25,16",
                   "--grid", "disc-grid:0,0,0.5,2", "--s", "10"]
    ops.append(Op("universality", lambda a=argv: _cli(a), _universality_check(10), TWO_POLE_DEFECT))

    # Sample-sup operations: 4 rationalize, 12 chordal and 12 cascade.  Sizes
    # are stratified over 720 to 2880 points (one draw per stratum) so every
    # seed gets the same spread of sizes and the latency percentiles do not
    # depend on the seed.
    for i in range(4):
        count = 720 + 540 * i + rng.randrange(540)
        num, den = _random_target(rng)
        rationals[f"r{i}"] = _rational_data(num, den)
        spec = f"circle:{rng.uniform(-0.3, 0.3)!r},{rng.uniform(-0.3, 0.3)!r},{rng.uniform(0.8, 1.2)!r},{count}"
        bits = [8, 16, 24, 32, 40]
        argv = base + ["rationalize", "--rational", f"config:r{i}", "--sample", spec, "--bits"] + [str(b) for b in bits]
        ops.append(Op("rationalize", lambda a=argv: _cli(a), _rationalize_check(num, den, spec, bits)))

    for i in range(12):
        count = 720 + 180 * i + rng.randrange(180)
        f, g = _random_target(rng), _random_target(rng)
        rationals[f"f{i}"], rationals[f"g{i}"] = _rational_data(*f), _rational_data(*g)
        cx, cy, r = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.0)
        spec = [f"circle:{cx!r},{cy!r},{r!r},{count}",
                f"disc-grid:{cx!r},{cy!r},{r!r},{round(math.sqrt(count))}",
                f"segment:{cx!r},{cy!r},{rng.uniform(-1, 1)!r},{rng.uniform(-1, 1)!r},{count}"][i % 3]
        argv = base + ["chordal", "--f", f"config:f{i}", "--g", f"config:g{i}", "--sample", spec]
        ops.append(Op("chordal_sup", lambda a=argv: _cli(a), _chordal_check(f, g, spec)))

    for n in (1, 2, 3, 4):
        for pn in (9, 10, 11):
            argv = ["cascade", "--n", str(n), "--pn-degree", str(pn), "--grid", "2000"]
            ops.append(Op("cascade", lambda a=argv: _cli(a), _cascade_check(n, pn)))
    return ops, {"rationals": rationals}


# --- pade_table ---------------------------------------------------------------------

PADE_CENTRES = ("0", "0.3", "-0.4+0.2j")
PADE_QS = (1, 4, 8, 12, 16, 20)
# Types of the seeded rationals handed to pade_construct.
CONSTRUCT_QS = (2, 3, 4, 10, 12, 14)
VOLTERRA_PAIRS = (("exp", "exp"), ("log1m", "geometric"), ("geometric", "exp"))

NORMALITY_DEFECT = Defect("normal=False for a table entry that is normal (absolute Hankel threshold)",
                          "normal=False")
DEGENERATE_DEFECT = Defect("DegeneratePadeError: the extended-precision cofactors underflow",
                           "determinant polynomials vanish")
OVERFLOW_DEFECT = Defect("volterra --order >= 171 on exp: untyped OverflowError from series_builtin",
                         "OverflowError")


def _builtin_coefficients(name: str, centre: complex, order: int) -> np.ndarray:
    k = np.arange(order + 1)
    if name == "exp":
        out = np.empty(order + 1, dtype=complex)
        out[0] = cmath.exp(centre)
        for j in range(1, order + 1):
            out[j] = out[j - 1] / j
        return out
    w = 1.0 - centre
    if name == "geometric":
        return 1.0 / w ** (k + 1)
    out = np.empty(order + 1, dtype=complex)
    out[0] = cmath.log(w)
    out[1:] = -1.0 / (k[1:] * w ** k[1:])
    return out


def _expected_normal(name: str, p: int, q: int) -> bool | None:
    """Normality of the (p, q) entry known from the function's structure.

    exp has a normal Padé table.  -log(1-z)/z is a Stieltjes function, so
    log(1-z) is normal wherever its Hankel window holds only a_1, a_2, ...
    (p >= q).  1/(1-z) has exact type (0, 1): every entry with p >= 1 and
    q >= 2 lies inside its Padé block and is not normal.
    """
    if name == "exp":
        return True
    if name == "log1m":
        return True if p >= q else None
    return q <= 1


def _taylor_residual_ok(num, den, series, p: int, q: int, rtol: float = 1e-9) -> tuple[bool, str]:
    """B f - A vanishes through order p + q, coefficient by coefficient relative to its terms."""
    for k in range(p + q + 1):
        terms = [den[j] * series[k - j] for j in range(min(k, len(den) - 1) + 1)]
        a_k = num[k] if k < len(num) else 0j
        residual = abs(sum(terms) - a_k)
        scale = sum(abs(t) for t in terms) + abs(a_k)
        if residual > rtol * scale:
            return False, f"order {k}: |B f - A| = {residual:.3g} against scale {scale:.3g}"
    return True, ""


def _pade_cli_check(name: str, centre: complex, p: int, q: int):
    series = _builtin_coefficients(name, centre, p + q)
    expect = _expected_normal(name, p, q)

    def check(result: CliResult):
        if expect is False and result.code == 3 and "determinant polynomials vanish" in result.err:
            return  # the determinant construction of a block interior is 0/0
        _exit_ok(result)
        data = json.loads(result.out)
        _require((data["p"], data["q"]) == (p, q), "orders differ from the request")
        num = [complex(*c) for c in data["numerator"]["coefficients"]]
        den = [complex(*c) for c in data["denominator"]["coefficients"]]
        _require(len(num) <= p + 1 and len(den) <= q + 1, "degree bound violated")
        if expect is not None:
            _require(data["normal"] is expect, f"normal={data['normal']}, expected {expect}")
        if data["normal"]:
            ok, why = _taylor_residual_ok(num, den, series, p, q)
            _require(ok, why)
    return check


def _pade_known_defect(name: str, centre: str, p: int, q: int) -> Defect | None:
    """Baseline failures of the pade CLI table; listed in perfbench/README.md."""
    if name == "exp" and (q >= 20 or (q, p) == (16, 18)):
        return DEGENERATE_DEFECT
    if name == "exp" and (q >= 8 or (q, p) == (4, 6)):
        return NORMALITY_DEFECT
    if name == "log1m" and (p >= q >= 8 or ((q, p) == (4, 6) and centre != "0.3")):
        return NORMALITY_DEFECT
    return None


def _construct_check(roots: tuple, centre: complex, q: int):
    zeros, poles, gain = roots
    w = 0.5 * np.exp(2j * np.pi * np.arange(7) / 7)
    want = gain * _horner(_from_roots(zeros), centre + w) / _horner(_from_roots(poles), centre + w)

    def check(approx):
        _require((approx.p, approx.q) == (q, q), "orders differ from the request")
        _require(approx.center == centre, "approximant centred elsewhere")
        # a rational of exact type (q, q) is the normal corner of its Padé block
        _require(approx.normal, "normal=False for a rational of exact type (q, q)")
        got = _horner(approx.numerator.coefficients, w) / _horner(approx.denominator.coefficients, w)
        for z, g, v in zip(centre + w, got, want):
            _close(g, v, 1e-8, 1e-12, f"approximant at {z:.3f}")
    return check


def _volterra_check(f: str, g: str, order: int):
    a = _builtin_coefficients(f, 0.0, order)
    b = _builtin_coefficients(g, 0.0, order)
    # c_{m+1} = [z^m](f g') / (m + 1), m = 0 .. order - 1
    gp = b[1:] * np.arange(1, order + 1)
    prod = np.convolve(a, gp)[:order]
    want = np.concatenate([[0.0], prod / np.arange(1, order + 1)])

    def check(result: CliResult):
        _exit_ok(result)
        data = json.loads(result.out)
        got = np.array([complex(*c) for c in data["coefficients"]])
        _require(len(got) == order + 1, f"{len(got)} coefficients, want {order + 1}")
        scale = np.abs(np.convolve(np.abs(a), np.abs(gp))[:order]) / np.arange(1, order + 1)
        err = np.abs(got[1:] - want[1:])
        _require(bool(np.all(err <= 1e-12 * scale + 1e-300)), f"max error {err.max():.3g}")
    return check


def _pade_table(rng: random.Random, config_path: str):
    ops = []
    for name in ("exp", "log1m", "geometric"):
        for centre in PADE_CENTRES:
            for q in PADE_QS:
                for p in (q - 1, q, q + 2):
                    argv = ["pade", "--builtin", name, "--p", str(p), "--q", str(q), f"--center={centre}"]
                    ops.append(Op("pade_cli", lambda a=argv: _cli(a),
                                  _pade_cli_check(name, complex(centre), p, q),
                                  _pade_known_defect(name, centre, p, q)))
    for q in CONSTRUCT_QS:
        zeros = [cmath.rect(rng.uniform(0.5, 2.5), rng.uniform(0, 2 * math.pi)) for _ in range(q)]
        poles = [cmath.rect(rng.uniform(1.2, 2.5), rng.uniform(0, 2 * math.pi)) for _ in range(q)]
        gain = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        rational = RationalFunction(Polynomial(gain * _from_roots(zeros)), Polynomial(_from_roots(poles)))
        centre = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))

        def call(r=rational, c=centre, q=q):
            return pade.pade_construct(r.taylor_at(c, 2 * q), q, q)

        ops.append(Op("pade_construct", call, _construct_check((zeros, poles, gain), centre, q),
                      NORMALITY_DEFECT if q >= 10 else None))
    for base in range(20, 201, 20):
        for f, g in VOLTERRA_PAIRS:
            # orders 20..169 never reach the factorial overflow; 180..200 always do
            order = base + rng.randint(0, 9) if base <= 160 else base
            argv = ["volterra", "--f", f, "--g", g, "--order", str(order)]
            defect = OVERFLOW_DEFECT if order >= 171 and "exp" in (f, g) else None
            ops.append(Op("volterra", lambda a=argv: _cli(a), _volterra_check(f, g, order), defect))
    return ops, None


# --- paths --------------------------------------------------------------------------

def _moments_check(residues, poles, centre: complex, radius: float, n: int):
    inside = [(r, a) for r, a in zip(residues, poles) if abs(a - centre) < radius]
    dist = min(abs(abs(a - centre) - radius) for a in poles)
    reach = abs(centre) + radius

    def check(result: CliResult):
        _exit_ok(result)
        rows = _csv_rows(result.out)
        _require(len(rows) == n, f"{len(rows)} moments, want {n}")
        for i, row in enumerate(rows):
            # residue theorem: int z^i f dz = 2 pi i sum over enclosed poles of r a^i
            want = 2j * math.pi * sum(r * a**i for r, a in inside)
            scale = sum(abs(r) for r in residues) * max(1.0, reach) ** i * (1.0 + radius / dist)
            _close(complex(row["moment"]), want, 0.0, 1e-9 * scale, f"moment {i}")
    return check


def _residue_check(parts: dict, n: int):
    def check(result):
        _, table = result
        scale = max(abs(c) for c in parts.values())
        for (a, j), got in table.items():
            want = parts.get((a, j), 0j)
            _close(got, want, 0.0, 1e-7 * scale, f"Laurent coefficient {j} at {a:.3f}")
        _require(len(table) == n * len({a for a, _ in parts}), "table misses a (pole, order) pair")
    return check


def _antiderivative_check(z0: complex, z: complex):
    want = cmath.exp(z) - cmath.exp(z0)

    def check(value):
        _close(value, want, 0.0, 1e-10 * (abs(cmath.exp(z)) + abs(cmath.exp(z0))), "antiderivative")
    return check


def _divergence_check(rows_expected: int):
    def check(result: CliResult):
        _exit_ok(result)
        rows = _csv_rows(result.out)
        _require(len(rows) == rows_expected, f"{len(rows)} rows, want {rows_expected}")
        i_col = [float(r["I"]) for r in rows]
        j_col = [float(r["J"]) for r in rows]
        _require(all(b > a for a, b in zip(i_col, i_col[1:])), "I does not increase")
        _require(all(j >= i * (1 - 1e-12) for i, j in zip(i_col, j_col)), "J < I")
    return check


def _moment_case(rng: random.Random, kind: str, centre: complex, radius: float):
    """Two poles with residues; the first inside, outside, or within 1e-4..3e-3 of the circle."""
    def at(distance_from_centre):
        return centre + cmath.rect(distance_from_centre, rng.uniform(0, 2 * math.pi))

    first = {"inside": rng.uniform(0.0, 0.5), "outside": rng.uniform(1.5, 2.5)}.get(kind)
    if first is None:
        gap = 10.0 ** rng.uniform(-4.0, math.log10(3e-3))
        first = 1.0 + gap / radius * (1 if kind == "near_out" else -1)
    poles = [at(first * radius), at(rng.uniform(0.0, 0.5) * radius)]
    residues = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in poles]
    return residues, poles


MOMENTS_DEFECT = Defect("moments: QuadratureError when a pole lies within 3e-3 of the circle", "no convergence after")


PATHS_BLOCKS = 4


def _paths(rng: random.Random, config_path: str):
    rationals, ops = {}, []
    for block in range(PATHS_BLOCKS):
        _paths_block(rng, config_path, block, rationals, ops)
    return ops, {"rationals": rationals}


def _paths_block(rng: random.Random, config_path: str, block: int, rationals: dict, ops: list):
    """One of each path operation: 6 moments, 3 residue corrections, 5 antiderivatives, 4 divergences."""
    for i, kind in enumerate(("inside", "outside", "near_in", "inside", "outside", "near_out")):
        centre = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        radius = rng.uniform(0.5, 1.5)
        residues, poles = _moment_case(rng, kind, centre, radius)
        den = _from_roots(poles)
        num = residues[0] * _from_roots(poles[1:]) + residues[1] * _from_roots(poles[:1])
        rationals[f"m{block}_{i}"] = _rational_data(num, den)
        n = i % 3 + 1
        argv = ["--config", config_path, "moments", "--f", f"config:m{block}_{i}",
                "--cycle", f"circle:{centre.real!r},{centre.imag!r},{radius!r}", "--n", str(n)]
        ops.append(Op("moments", lambda a=argv: _cli(a), _moments_check(residues, poles, centre, radius, n),
                      MOMENTS_DEFECT if kind.startswith("near") else None))

    for n, mults in ((1, (1, 1)), (2, (2, 1)), (3, (2, 1, 1))):
        poles = [complex(1.2 * math.cos(t), 1.2 * math.sin(t))
                 for t in (2 * math.pi * (k + rng.uniform(0.0, 0.5)) / len(mults) for k in range(len(mults)))]
        parts = {(a, j): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for a, m in zip(poles, mults)
                 for j in range(1, m + 1)}
        roots = [a for a, m in zip(poles, mults) for _ in range(m)]
        den = _from_roots(roots)
        num = np.zeros(len(den) - 1, dtype=complex)
        for (a, j), c in parts.items():
            rest = list(roots)
            for _ in range(j):
                rest.remove(a)
            term = c * _from_roots(rest)
            num[: len(term)] += term
        rational = RationalFunction(Polynomial(num), Polynomial(den))
        ops.append(Op("residue_correction", lambda r=rational, p=poles, n=n: construct.residue_correction(r, p, n),
                      _residue_check(parts, n)))

    for k_lo, k_hi in ((1, 10), (10, 60), (60, 200)):
        k = rng.randint(k_lo, k_hi)
        profile = 1.0 + 0.5 * np.sin(k * np.linspace(0.0, 1.0, domains.PROFILE_SAMPLES))
        domain = domains.CorridorDomain(profile, 0.0)
        z0 = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.45))
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.45))
        ops.append(Op("antiderivative", lambda d=domain, a=z0, b=z: domains.antiderivative_at(cmath.exp, d, a, b),
                      _antiderivative_check(z0, z)))
    theta = 2.0 * np.pi * np.arange(domains.PROFILE_SAMPLES) / domains.PROFILE_SAMPLES
    for m in (rng.randint(2, 5), rng.randint(6, 12)):
        domain = domains.StarlikeDomain(0.0, 1.0 + 0.3 * np.cos(m * theta))
        z0, z = (cmath.rect(rng.uniform(0.1, 0.65), rng.uniform(0, 2 * math.pi)) for _ in range(2))
        ops.append(Op("antiderivative", lambda d=domain, a=z0, b=z: domains.antiderivative_at(cmath.exp, d, a, b),
                      _antiderivative_check(z0, z)))

    # decades are stratified across the four blocks, like the sizes in certify
    for lowest, per_decade in ((8, 1), (14, 2), (19, 3), (24, 4)):
        decades = lowest + block + rng.randrange(2)
        argv = ["divergence", "--eps-min", f"1e-{decades + 2}", "--eps-max", "1e-2",
                "--per-decade", str(per_decade), "--t0", "0.5"]
        ops.append(Op("divergence", lambda a=argv: _cli(a), _divergence_check(decades * per_decade + 1)))
