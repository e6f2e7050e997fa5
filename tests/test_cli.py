import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from padelab import CirclePath, cli, construct, moment_test
from padelab.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    emit_report,
    main,
)


def run(argv):
    return main(argv)


class TestDispatch:
    def test_unknown_subcommand_usage_exit(self, capsys):
        assert run(["no-such-command"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_usage_exit(self):
        assert run([]) == EXIT_USAGE

    def test_pade_fixture(self, tmp_path):
        out = tmp_path / "pade.json"
        assert run(["pade", "--builtin", "exp", "--p", "1", "--q", "1",
                    "--center", "0", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        num = [complex(re, im) for re, im in data["numerator"]["coefficients"]]
        den = [complex(re, im) for re, im in data["denominator"]["coefficients"]]
        b0 = den[0]
        assert np.allclose([c / b0 for c in num], [1.0, 0.5])
        assert np.allclose([c / b0 for c in den], [1.0, -0.5])
        assert data["normal"] is True

    def test_moments_residue(self, tmp_path):
        out = tmp_path / "moments.csv"
        assert run(["moments", "--f", "one-over-z", "--cycle", "unit-circle",
                    "--n", "1", "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().strip().split("\n")
        assert header == "i,moment,abs"
        parts = row.split(",")
        assert abs(float(parts[-1]) - 2.0 * math.pi) < 1e-10

    def test_chordal_points(self, capsys):
        assert run(["chordal", "--a", "0", "--b", "inf"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chordal"] == 1.0

    def test_chordal_points_beyond_square_overflow(self, capsys):
        # |a|^2 overflows a double above about 1.34e154
        assert run(["chordal", "--a", "1e200", "--b", "0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["chordal"] == 1.0

    def test_pole_on_sample_point_prints_no_warning(self, capsys):
        # 1/z has its pole on the centre point of the 3x3 grid; it reads as infinity
        cases = [
            (["chordal", "--f", "one-over-z", "--g", "one-over-z-minus-2",
              "--sample", "disc-grid:0,0,1,3"],
             '{"sup_chordal": 0.9990813533098185, "at": [0.7071067811865475, 0.0], '
             '"mesh": 0.7071067811865475}\n'),
            (["rationalize", "--rational", "one-over-z", "--sample", "disc-grid:0,0,1,3"],
             "bits,sup_chordal,mesh\n"
             + "".join(f"{b},0.0,0.7071067811865475\n" for b in (8, 16, 24, 32, 40))),
        ]
        for argv, want in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(argv) == EXIT_OK
            assert [str(w.message) for w in caught] == []
            assert capsys.readouterr() == (want, "")

    def test_pole_on_a_trapezoid_node_prints_no_warning(self, capsys):
        # the circle through 0 puts the pole of 1/z on the node at angle 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["moments", "--f", "one-over-z", "--cycle", "circle:-1,0,1"]) == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        out, err = capsys.readouterr()
        assert out == ""
        # 1/z here is a plain function, not a rational, so its circle is not moved
        assert err == "numeric failure: integrand not finite at a node of CirclePath(center=(-1+0j), radius=1.0)\n"

    def test_divergence_csv_contract(self, tmp_path):
        out = tmp_path / "div.csv"
        assert run(["divergence", "--eps-min", "1e-4", "--eps-max", "1e-2",
                    "--per-decade", "1", "--t0", "0.5", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eps,I,J,comparator,arg_h"
        assert len(lines) == 4
        i_column = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(i_column, i_column[1:]))

    def test_divergence_gaps_below_the_real_part_underflow(self, tmp_path):
        # k = 536 evaluates h at t = 2^-537, where Re(1 - e^{it}) rounds to -0.0
        out = tmp_path / "gaps.csv"
        assert run(["divergence", "--eps-min", "1e-3", "--eps-max", "1e-2",
                    "--gaps", "536", "--gaps-out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,gap" and len(lines) == 1 + 536
        assert lines[-1].startswith("536,")

    def test_divergence_many_rows(self, capsys):
        # 1201 eps pieces and the half-mass window share one batched engine run
        assert run(["divergence", "--per-decade", "200"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 6 * 200 + 1
        i_column = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(i_column, i_column[1:]))

    def test_divergence_svg(self, tmp_path):
        svg = tmp_path / "plot.svg"
        assert run(["divergence", "--eps-min", "1e-3", "--eps-max", "1e-2",
                    "--per-decade", "1", "--t0", "0.5",
                    "--out", str(tmp_path / "d.csv"), "--svg", str(svg)]) == EXIT_OK
        assert svg.read_text().startswith("<svg")

    def test_rationalize_monotone(self, tmp_path):
        out = tmp_path / "rat.csv"
        assert run(["rationalize", "--bits", "8", "16", "24",
                    "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bits,sup_chordal,mesh"
        sups = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(sups, sups[1:]))

    def test_volterra_json(self, tmp_path):
        out = tmp_path / "volt.json"
        assert run(["volterra", "--f", "exp", "--g", "exp", "--order", "8",
                    "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        coeffs = [complex(re, im) for re, im in data["coefficients"]]
        assert coeffs[0] == 0.0
        assert abs(coeffs[1] - 1.0) < 1e-14

    def test_precondition_exit_code(self):
        # eps above t0 violates the experiment's precondition
        assert run(["divergence", "--eps-min", "0.4", "--eps-max", "0.4",
                    "--per-decade", "1", "--t0", "0.3"]) == EXIT_PRECONDITION

    def test_numeric_failure_exit_code(self, tmp_path):
        # cascade with an impossibly tight eps trips the bound check
        assert run(["cascade", "--n", "3", "--pn-degree", "12",
                    "--eps", "1e-30", "--out", str(tmp_path / "c.csv")]) == EXIT_NUMERIC


# named config objects of the wrong shape, and one whose value is out of range
MALFORMED_CONFIG = {
    "rationals": {"empty": {}, "number": {"numerator": 3, "denominator": 1}},
    "samples": {"empty": {}, "number": {"points": 5}},
    "domains": {
        "empty": {},
        "disc-only": {"variant": "disc"},
        "negative-disc": {"variant": "disc", "center": [0, 0], "radius": -1},
    },
}


class TestNoTraceback:
    # text that does not parse, or a config object of the wrong shape, is a
    # usage error, a value out of its range a precondition error; a
    # non-finite complex is the point at infinity
    @pytest.mark.parametrize("argv, code", [
        ("pade --builtin exp --p 1 --q 1 --center abc", EXIT_USAGE),
        ("universality --k-center zz", EXIT_USAGE),
        ("chordal --a 0 --b xyz", EXIT_USAGE),
        ("chordal --f one-over-z --g one-over-z2 --sample circle:a,0,1,8", EXIT_USAGE),
        ("moments --f one-over-z --cycle circle:0,0,x", EXIT_USAGE),
        ("cascade --domain disc:0,0,q", EXIT_USAGE),
        ("--config no-such-config.json volterra", EXIT_USAGE),
        ("--config c.json chordal --f config:empty --g one-over-z --sample circle:0,0,1,8", EXIT_USAGE),
        ("--config c.json chordal --f config:number --g one-over-z --sample circle:0,0,1,8", EXIT_USAGE),
        ("--config c.json chordal --f one-over-z --g one-over-z --sample config:number", EXIT_USAGE),
        ("--config c.json chordal --f one-over-z --g one-over-z --sample config:empty", EXIT_USAGE),
        ("--config c.json cascade --domain config:disc-only", EXIT_USAGE),
        ("--config c.json cascade --domain config:empty", EXIT_USAGE),
        ("cascade --domain empty-domain.json", EXIT_USAGE),
        ("--config list.json chordal --f config:x --g one-over-z --sample circle:0,0,1,8", EXIT_USAGE),
        ("--config sections.json chordal --f config:x --g one-over-z --sample circle:0,0,1,8", EXIT_USAGE),
        ("--config sections.json chordal --f one-over-z --g one-over-z --sample config:s", EXIT_USAGE),
        ("--config sections.json cascade --domain config:d", EXIT_USAGE),
        ("--config c.json cascade --domain config:negative-disc", EXIT_PRECONDITION),
        ("moments --f one-over-z --cycle circle:0,0,-1", EXIT_PRECONDITION),
        ("cascade --domain disc:0,0,-1", EXIT_PRECONDITION),
        ("moments --f one-over-z --n 0", EXIT_PRECONDITION),
        ("moments --f one-over-z-minus-2 --cycle circle:0,0,2", EXIT_PRECONDITION),
        ("pade --builtin exp --p -1 --q 1", EXIT_PRECONDITION),
        ("volterra --order -3", EXIT_PRECONDITION),
        ("pade --builtin exp --p -3 --q 1", EXIT_PRECONDITION),
        ("divergence --eps-min 0 --eps-max 1e-2", EXIT_PRECONDITION),
        ("universality --s 0", EXIT_PRECONDITION),
        ("universality --s -1", EXIT_PRECONDITION),
        ("universality --ell-max 3", EXIT_USAGE),  # the derivative errors are 0 by the theorem
        ("universality --max-degree -1", EXIT_PRECONDITION),
        ("universality --tol -1", EXIT_PRECONDITION),
        ("universality --tol nan", EXIT_PRECONDITION),
        ("divergence --eps-min 1e-2 --eps-max 1e-8", EXIT_PRECONDITION),
        ("divergence --per-decade 0", EXIT_PRECONDITION),
        ("cascade --grid 5", EXIT_PRECONDITION),
        ("cascade --f json", EXIT_USAGE),  # no option is abbreviated, --f is not --format
        ("chordal --a=-inf --b 0", EXIT_OK),
        ("chordal --a=infj --b 0", EXIT_OK),
        ("chordal --a nan --b 0", EXIT_OK),
        ("chordal --a 0 --b inf", EXIT_OK),
    ])
    def test_exit_code(self, argv, code, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(MALFORMED_CONFIG))
        (tmp_path / "empty-domain.json").write_text("{}")
        (tmp_path / "list.json").write_text("[]")
        (tmp_path / "sections.json").write_text(json.dumps({"rationals": 3, "samples": [], "domains": "x"}))
        assert run(argv.split()) == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert json.loads(out) == {"chordal": 1.0}
        else:
            assert err.startswith("usage error: " if code == EXIT_USAGE else "precondition error: ")

    def test_trailing_i_is_the_imaginary_unit(self, capsys):
        assert run(["chordal", "--a", "1+2i", "--b", "1+2j"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"chordal": 0.0}


class TestNonFiniteInputs:
    # each is a precondition error before any arithmetic, so no RuntimeWarning
    @pytest.mark.parametrize("argv, message", [
        ("rationalize --sample circle:nan,0,1,10",
         "a circle sample needs a finite centre and a positive finite radius, got centre (nan+0j), radius 1.0"),
        ("rationalize --sample circle:0,0,inf,10",
         "a circle sample needs a finite centre and a positive finite radius, got centre 0j, radius inf"),
        ("rationalize --sample disc-grid:0,inf,1,3",
         "a disc grid needs a finite centre and a positive finite radius, got centre infj, radius 1.0"),
        ("rationalize --sample segment:0,0,inf,0,5", "segment endpoints must be finite, got 0j and (inf+0j)"),
        ("--config c.json rationalize --sample config:nan-point", "compact sample points must be finite"),
        ("moments --f one-over-z --cycle circle:0,0,inf",
         "a circle path needs a finite centre and a positive finite radius, got centre 0j, radius inf"),
        ("moments --f one-over-z --cycle circle:0,0,nan",
         "a circle path needs a finite centre and a positive finite radius, got centre 0j, radius nan"),
        ("moments --f one-over-z --cycle circle:nan,0,1",
         "a circle path needs a finite centre and a positive finite radius, got centre (nan+0j), radius 1.0"),
        ("cascade --domain disc:0,0,inf",
         "a disc domain needs a finite centre and a positive finite radius, got centre 0j, radius inf"),
        ("rationalize --sample circle:1e308,0,1e308,10",
         "a circle sample overflows: |centre| + 2 radius is not finite, got centre (1e+308+0j), radius 1e+308"),
        ("rationalize --sample segment:-1e308,0,1e308,0,5",
         "segment overflows: |b - a| is not finite, got (-1e+308+0j) and (1e+308+0j)"),
        ("moments --f one-over-z --cycle circle:1e308,0,1e308",
         "a circle path overflows: |centre| + 2 radius is not finite, got centre (1e+308+0j), radius 1e+308"),
        ("cascade --domain disc:0,0,1e308",
         "a disc domain overflows: |centre| + 2 radius is not finite, got centre 0j, radius 1e+308"),
        ("pade --builtin exp --p 1 --q 1 --center inf", "series centre must be finite, got (inf+0j)"),
        ("pade --builtin log1m --p 1 --q 1 --center inf", "series centre must be finite, got (inf+0j)"),
        ("pade --builtin geometric --p 1 --q 1 --center inf", "series centre must be finite, got (inf+0j)"),
        ("pade --builtin geometric --p 1 --q 1 --center nan", "series centre must be finite, got (nan+0j)"),
        ("pade --builtin geometric --p 2 --q 3 --center=1e300",
         "the geometric series at centre (1e+300+0j) overflows at order 5: coefficient 2 is not finite"),
        ("pade --builtin log1m --p 2 --q 3 --center=1e300",
         "the log1m series at centre (1e+300+0j) overflows at order 5: coefficient 2 is not finite"),
        ("pade --builtin exp --p 2 --q 3 --center=800",
         "the exp series at centre (800+0j) overflows at order 5: coefficient 0 is not finite"),
        ("cascade --eps 0", "--eps must be positive and finite, got 0.0"),
        ("cascade --eps=-1", "--eps must be positive and finite, got -1.0"),
        ("cascade --eps nan", "--eps must be positive and finite, got nan"),
        ("cascade --eps inf", "--eps must be positive and finite, got inf"),
    ])
    def test_precondition_error(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        points = [[0.0, 0.0], [math.nan, 0.0], [1.0, 0.0]]
        (tmp_path / "c.json").write_text(json.dumps({"samples": {"nan-point": {"label": "p", "mesh": 1.0, "points": points}}}))
        assert run(argv.split()) == EXIT_PRECONDITION
        assert capsys.readouterr().err == f"precondition error: {message}\n"

    def test_overflowing_values_at_finite_points(self, capsys):
        # the sample is finite, and pi z + 1 overflows on it; this printed sup_chordal 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("rationalize --sample disc-grid:1e308,1e308,1,3".split()) == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric failure: the numerator or denominator overflows at (1e+308+1e+308j)\n"

    def test_overflowing_coefficient_modulus_ends_at_entry(self, tmp_path):
        # |1.5e308 + 1.5e308i| overflows; the pole finder's radius loop never ended on it
        den = {"center": [0, 0], "coefficients": [[1.5e308, 1.5e308], [1, 0]]}
        h = {"numerator": {"center": [0, 0], "coefficients": [[1, 0]]}, "denominator": den}
        (tmp_path / "c.json").write_text(json.dumps({"rationals": {"h": h}}))
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "padelab.cli", "--config", "c.json", "moments", "--f", "config:h",
             "--cycle", "circle:0,0,1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_PRECONDITION
        assert done.stderr == "precondition error: a coefficient modulus of the numerator or denominator overflows\n"


class TestExpBeyondFloatFactorials:
    # float(k!) overflows from k = 171 on
    def test_volterra_order_171(self, tmp_path):
        out = tmp_path / "volt.json"
        assert run(["volterra", "--order", "171", "--out", str(out)]) == EXIT_OK
        coeffs = [complex(re, im) for re, im in json.loads(out.read_text())["coefficients"]]
        assert len(coeffs) == 172 and abs(coeffs[1] - 1.0) < 1e-14

    def test_large_pade_is_a_numeric_failure(self, capsys):
        assert run(["pade", "--builtin", "exp", "--p", "100", "--q", "80"]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric failure: ")


class TestParserReuse:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_built_once_across_calls(self, monkeypatch, capsys):
        builds = []
        build = cli.build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        assert run(["chordal", "--a", "0", "--b", "inf"]) == EXIT_OK
        assert run(["no-such-command"]) == EXIT_USAGE
        assert run(["volterra", "--order", "4"]) == EXIT_OK
        assert len(builds) == 1

    def test_usage_error_then_valid_call_match_fresh_parser(self, capsys):
        argvs = [
            ["pade", "--builtin", "exp", "--p", "2"],
            ["pade", "--builtin", "exp", "--p", "2", "--q", "2"],
            ["no-such-command"],
            ["rationalize", "--bits"],
            ["chordal", "--a", "0", "--b", "inf"],
            [],
        ]

        def outputs(fresh):
            got = []
            for argv in argvs:
                if fresh:
                    cli._parser.cache_clear()
                code = run(argv)
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err))
            return got

        shared = outputs(fresh=False)
        assert [code for code, _, _ in shared] == [
            EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_USAGE]
        assert shared == outputs(fresh=True)

    def test_extreme_bits(self, tmp_path, capsys):
        out = tmp_path / "rat.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["rationalize", "--bits", "1023", "1024", "2000", "--out", str(out)]) == EXIT_OK
        assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [
            [bits, "0.0"] for bits in ("1023", "1024", "2000")]
        for bits in ("-5", "-1100", "-2000"):
            assert run(["rationalize", "--bits", bits]) == EXIT_NUMERIC
            assert capsys.readouterr().err == f"numeric failure: denominator rounds to zero at 2^{bits[1:]}\n"

    def test_default_bits_never_mutated(self, tmp_path):
        out = tmp_path / "rat.csv"
        for bits in ([], ["--bits", "4"], []):
            argv = ["rationalize", "--sample", "circle:0,0,1,8", *bits, "--out", str(out)]
            assert run(argv) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 5
        assert cli._parser().parse_args(["rationalize"]).bits == [8, 16, 24, 32, 40]


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["divergence", "--eps-min", "1e-4", "--eps-max", "1e-2",
                "--per-decade", "1", "--t0", "0.5"]
        assert run(argv + ["--out", str(a)]) == EXIT_OK
        assert run(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_empty_report_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_report([], ["eps", "I", "J", "comparator", "arg_h"], "csv", str(out))
        assert out.read_text() == "eps,I,J,comparator,arg_h\n"

    def test_csv_uses_lf_and_roundtrip_floats(self, tmp_path):
        out = tmp_path / "fmt.csv"
        emit_report([{"x": 0.1, "y": 2.0}], ["x", "y"], "csv", str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw == b"x,y\n0.1,2.0\n"


class TestConfigObjects:
    def test_named_rational_and_sample(self, tmp_path, capsys):
        config = {
            "rationals": {
                "shifted": {
                    "numerator": {"center": [0, 0], "coefficients": [[1, 0]]},
                    "denominator": {"center": [0, 0], "coefficients": [[-2, 0], [1, 0]]},
                }
            },
            "samples": {
                "tiny-circle": {
                    "label": "tiny",
                    "mesh": 1e-6,
                    "points": [[2 + 1e-6 * math.cos(t), 1e-6 * math.sin(t)]
                               for t in (0.0, 1.0, 2.0, 3.0)],
                }
            },
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code = run(["--config", str(cfg), "chordal",
                    "--f", "config:shifted", "--g", "config:shifted",
                    "--sample", "config:tiny-circle"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["sup_chordal"] == 0.0

    def test_missing_config_name_is_usage_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{}")
        code = run(["--config", str(cfg), "chordal",
                    "--f", "config:nope", "--g", "config:nope",
                    "--sample", "circle:0,0,1,8"])
        assert code == EXIT_USAGE


class TestUniversalityCommand:
    def test_certificate_and_csv(self, tmp_path):
        out = tmp_path / "cert.json"
        csv_out = tmp_path / "centers.csv"
        code = run(["universality", "--out", str(out), "--csv-out", str(csv_out)])
        assert code == EXIT_OK
        cert = json.loads(out.read_text())
        assert cert["e_set_member"] is True
        assert cert["t_set_member"] is True
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0] == "center,hankel_abs,normal"
        assert len(lines) == 1 + 81
        assert all(line.endswith(",True") for line in lines[1:])
        assert "sup_derivative_errors_on_Delta" not in cert
        assert cert["margin_on_K"] > 1.0 and cert["margin_on_Delta"] > 1.0

    def test_default_run_accepts_in_one_certificate_call(self, tmp_path, monkeypatch):
        calls = []
        certificate = construct.universality_certificate

        def counting(*args, **kwargs):
            calls.append(args)
            return certificate(*args, **kwargs)

        monkeypatch.setattr(construct, "universality_certificate", counting)
        out = tmp_path / "cert.json"
        assert run(["universality", "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        assert json.loads(out.read_text())["sup_chordal_on_K"] < 1e-3

    def test_pi_target_accepts(self, tmp_path):
        # both determinant polynomials are small at 2.25 on K, yet clear of a common zero
        out = tmp_path / "cert.json"
        assert run(["universality", "--target", "pi-z-plus-1-over-z-minus-2", "--out", str(out)]) == EXIT_OK
        cert = json.loads(out.read_text())
        assert cert["e_set_member"] is True and cert["t_set_member"] is True

    def test_pole_on_the_k_boundary_is_a_precondition_error(self, capsys):
        # the target's pole 2 lies on the circle |z - 1| = 1
        assert run(["universality", "--k-center", "1", "--k-radius", "1"]) == EXIT_PRECONDITION
        assert capsys.readouterr().err == "precondition error: pole (2-0j) lies on the region boundary\n"

    @pytest.mark.parametrize("radius", ["-0.25", "nan", "0", "inf"])
    def test_k_radius_not_positive_and_finite_is_a_precondition_error(self, radius, capsys):
        assert run(["universality", f"--k-radius={radius}"]) == EXIT_PRECONDITION
        assert capsys.readouterr().err == (
            "precondition error: region disc needs a finite centre and a positive finite radius, "
            f"got centre (2+0j), radius {float(radius)!r}\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--s", "0", "--tol", "1e-12"], "s must be at least 1, got 0"),
        (["--s", "-3", "--max-degree", "5"], "s must be at least 1, got -3"),
    ])
    def test_bad_s_is_a_precondition_error_before_the_fit(self, argv, message, capsys):
        assert run(["universality"] + argv) == EXIT_PRECONDITION
        assert capsys.readouterr().err == f"precondition error: {message}\n"

    def test_fit_beyond_its_rows_is_a_numeric_failure(self, capsys):
        # 12 constraint rows determine a polynomial of degree <= 11 at most
        argv = ["universality", "--k-sample", "circle:2,0,0.25,4", "--grid", "disc-grid:0,0,0.5,2", "--tol", "1e-9"]
        assert run(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: no polynomial of degree <= 11 (the most that 12 constraint rows determine)")


class TestModuleEntryPoint:
    def test_python_dash_m_runs_main(self, tmp_path):
        # the package's parent directory, so the child imports this checkout from any directory
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "padelab.cli", "pade", "--builtin", "exp", "--p", "1", "--q", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        data = json.loads(done.stdout)
        assert data["p"] == data["q"] == 1


# Two near-circle cases of the benchmark's paths workload (rationals m0_5 of
# seed 1 and m3_2 of seed 2): each has a pole within 3e-3 of its circle.
# On the given circle the trapezoidal rule converges on its last doubling,
# exactly at 16,384 nodes, where a rounding change could tip it over the
# node cap.  The CLI takes the moments on the circle construct.moment_circle
# picks, a factor 1.43 (m0_5) or 2 (m3_2) from the nearest pole, where the
# rule stops at 256 and 128 nodes.  The residue theorem is checked to the
# workload's own bound.
NEAR_CIRCLE_CASES = {
    "seed1_m0_5": (
        [[-0.2261198644838291, -0.021781104121212307], [1.4596690991292969, 0.8689066169665438]],
        [[0.020106486503543013, 0.039880371106909444], [-0.24071689719361306, 0.004112221074337424],
         [1.0, 0.0]],
        "0.4815425132309542,-0.032505434002770395,0.5238996210914568",
    ),
    "seed2_m3_2": (
        [[0.2819176134097855, -0.10911177050703175], [0.8991548127053266, 0.2492723743568519]],
        [[0.18947419522553252, -0.05696571923630547], [-0.5318943352078926, -0.06905820086483616],
         [1.0, 0.0]],
        "0.33712717918987944,0.3065641119795198,0.6598748657182463",
    ),
}


@pytest.mark.parametrize("name", sorted(NEAR_CIRCLE_CASES))
def test_near_circle_moments_at_the_node_cap(name, tmp_path, capsys):
    num, den, circle = NEAR_CIRCLE_CASES[name]
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"rationals": {"r": {
        "numerator": {"center": [0.0, 0.0], "coefficients": num},
        "denominator": {"center": [0.0, 0.0], "coefficients": den},
    }}}))
    assert run(["--config", str(config), "moments", "--f", "config:r",
                "--cycle", f"circle:{circle}", "--n", "3"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 3

    # residue theorem: int z^i f dz = 2 pi i sum over enclosed poles of Res(f, a) a^i
    p = np.polynomial.Polynomial([complex(*c) for c in num])
    q = np.polynomial.Polynomial([complex(*c) for c in den])
    cx, cy, radius = (float(x) for x in circle.split(","))
    centre = complex(cx, cy)
    poles = q.roots()
    residues = p(poles) / q.deriv()(poles)
    inside = [(r, a) for r, a in zip(residues, poles) if abs(a - centre) < radius]
    dist = min(abs(abs(a - centre) - radius) for a in poles)
    assert dist < 3e-3
    for i, row in enumerate(rows):
        want = 2j * math.pi * sum(r * a**i for r, a in inside)
        scale = sum(abs(residues)) * max(1.0, abs(centre) + radius) ** i * (1.0 + radius / dist)
        assert abs(complex(row.split(",")[1]) - want) <= 1e-9 * scale


def rational_config(tmp_path, residues, poles):
    """A config file holding sum r_j / (z - a_j) as the rational "r"."""
    den = np.polynomial.polynomial.polyfromroots(poles)
    num = np.zeros(len(poles), dtype=complex)
    for j, r in enumerate(residues):
        num += r * np.polynomial.polynomial.polyfromroots(np.delete(poles, j))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"rationals": {"r": {
        "numerator": {"center": [0.0, 0.0], "coefficients": [[c.real, c.imag] for c in num]},
        "denominator": {"center": [0.0, 0.0], "coefficients": [[c.real, c.imag] for c in den]},
    }}}))
    return config


def cli_moments(config, circle, n, capsys):
    assert run(["--config", str(config), "moments", "--f", "config:r",
                "--cycle", f"circle:{circle.center.real!r},{circle.center.imag!r},{circle.radius!r}",
                "--n", str(n)]) == EXIT_OK
    return [complex(row.split(",")[1]) for row in capsys.readouterr().out.strip().split("\n")[1:]]


class TestMomentsOnAMovedCircle:
    def test_random_rationals_match_the_residue_theorem(self, tmp_path, capsys):
        # 2 to 4 poles: one inside, the others inside, outside or within 3e-3
        # of the circle.  The CLI's moments, on the moved circle, and
        # moment_test's on the given one where no pole is that close
        rng = np.random.default_rng(19)
        near = 0
        for trial in range(30):
            k = 2 + trial % 3
            circle = CirclePath(complex(*rng.uniform(-0.5, 0.5, 2)), rng.uniform(0.5, 1.5))
            kinds = rng.integers(0, 3, k - 1)
            ratios = [rng.uniform(0.0, 0.7)] + [
                rng.uniform(0.0, 0.7) if kind == 0 else rng.uniform(1.4, 2.5) if kind == 1
                else 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, math.log10(3e-3))
                for kind in kinds]
            poles = circle.center + np.array(ratios) * circle.radius * np.exp(1j * rng.uniform(0.0, 2 * math.pi, k))
            residues = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            config = rational_config(tmp_path, residues, poles)
            got = cli_moments(config, circle, 3, capsys)
            on_given = None
            if 2 in kinds:
                near += 1
            else:
                on_given = moment_test(cli.resolve_rational("config:r", cli.load_config(str(config))), circle, 3)
            inside = [(r, a) for r, a in zip(residues, poles) if abs(a - circle.center) < circle.radius]
            for i in range(3):
                want = 2j * math.pi * sum(r * a**i for r, a in inside)
                scale = sum(abs(r) * max(1.0, abs(a)) ** i for r, a in zip(residues, poles))
                assert abs(got[i] - want) <= 1e-12 * scale
                if on_given is not None:
                    assert abs(on_given[i] - want) <= 1e-12 * scale
        assert 5 < near < 25

    def test_circle_far_from_every_pole_is_not_moved(self, tmp_path, capsys):
        # every pole at least a factor 2 from the radius: the output is the
        # moment test's on the given circle, bit for bit
        circle = CirclePath(0.1 - 0.3j, 0.9)
        poles = np.array([0.1 - 0.3j + 0.4, 0.1 - 0.3j - 2.0j, 0.5 + 2.0j])
        config = rational_config(tmp_path, np.array([1.0 - 0.5j, 0.3j, 2.0]), poles)
        f = cli.resolve_rational("config:r", cli.load_config(str(config)))
        assert construct.moment_circle(f, circle, 3) is circle
        got = cli_moments(config, circle, 3, capsys)
        assert np.array(got).tobytes() == np.array(moment_test(f, circle, 3)).tobytes()

    def test_merged_pair_across_the_circle_fails_loudly(self, tmp_path, capsys):
        # 1/((z - a)(z - a - 1e-5)) with the circle between the two poles: the
        # pole finder merges them into one double pole outside the circle, so
        # a moved circle would drop the inner one and print moments of 0
        a = 1.0 - 4e-6
        config = rational_config(tmp_path, np.array([-1e5, 1e5]), np.array([a, a + 1e-5]))
        assert run(["--config", str(config), "moments", "--f", "config:r", "--cycle", "circle:0,0,1"]) \
            == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: no convergence after 16384 nodes")

    @pytest.mark.parametrize("inner", [0.6, 0.95])
    def test_many_moments_on_a_grown_circle(self, inner, tmp_path, capsys):
        # 60 moments of 1/(z - inner): the circle grows only as far as the
        # node sums' rounding allows, and every moment is inner^i 2 pi i
        config = rational_config(tmp_path, np.array([1.0]), np.array([inner]))
        got = cli_moments(config, CirclePath(0.0, 1.0), 60, capsys)
        for i, moment in enumerate(got):
            assert abs(moment - 2j * math.pi * inner**i) <= 1e-12

    def test_pole_on_the_circle_is_a_precondition_error(self, tmp_path, capsys):
        config = rational_config(tmp_path, np.array([1.0, 2.0]), np.array([0.3 + 0.4j, 0.1]))
        assert run(["--config", str(config), "moments", "--f", "config:r", "--cycle", "circle:0,0,0.5"]) \
            == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("precondition error: pole (0.3") and "lies on the moment circle" in err
