import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from padelab import cli, construct
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

    def test_divergence_csv_contract(self, tmp_path):
        out = tmp_path / "div.csv"
        assert run(["divergence", "--eps-min", "1e-4", "--eps-max", "1e-2",
                    "--per-decade", "1", "--t0", "0.5", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eps,I,J,comparator,arg_h"
        assert len(lines) == 4
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
        ("--config c.json cascade --domain config:negative-disc", EXIT_PRECONDITION),
        ("moments --f one-over-z --cycle circle:0,0,-1", EXIT_PRECONDITION),
        ("cascade --domain disc:0,0,-1", EXIT_PRECONDITION),
        ("moments --f one-over-z --n 0", EXIT_PRECONDITION),
        ("pade --builtin exp --p -1 --q 1", EXIT_PRECONDITION),
        ("volterra --order -3", EXIT_PRECONDITION),
        ("pade --builtin exp --p -3 --q 1", EXIT_PRECONDITION),
        ("divergence --eps-min 0 --eps-max 1e-2", EXIT_PRECONDITION),
        ("universality --s 0", EXIT_PRECONDITION),
        ("universality --s -1", EXIT_PRECONDITION),
        ("cascade --grid 5", EXIT_PRECONDITION),
        ("chordal --a=-inf --b 0", EXIT_OK),
        ("chordal --a=infj --b 0", EXIT_OK),
        ("chordal --a nan --b 0", EXIT_OK),
        ("chordal --a 0 --b inf", EXIT_OK),
    ])
    def test_exit_code(self, argv, code, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps(MALFORMED_CONFIG))
        (tmp_path / "empty-domain.json").write_text("{}")
        assert run(argv.split()) == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert json.loads(out) == {"chordal": 1.0}
        else:
            assert err.startswith("usage error: " if code == EXIT_USAGE else "precondition error: ")

    def test_trailing_i_is_the_imaginary_unit(self, capsys):
        assert run(["chordal", "--a", "1+2i", "--b", "1+2j"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"chordal": 0.0}


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
        assert lines[0].startswith("center,hankel_abs,normal")
        assert len(lines) == 1 + 81

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
        sups = json.loads(out.read_text())["sup_derivative_errors_on_Delta"]
        assert len(sups) == 4 and all(e < 1e-8 for e in sups)

    def test_pi_target_accepts(self, tmp_path):
        # both determinant polynomials are small at 2.25 on K, yet clear of a common zero
        out = tmp_path / "cert.json"
        assert run(["universality", "--target", "pi-z-plus-1-over-z-minus-2", "--out", str(out)]) == EXIT_OK
        cert = json.loads(out.read_text())
        assert cert["e_set_member"] is True and cert["t_set_member"] is True

    def test_derivative_orders_through_six(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["universality", "--ell-max", "6", "--out", str(out)]) == EXIT_OK
        cert = json.loads(out.read_text())
        assert len(cert["sup_derivative_errors_on_Delta"]) == 7
        assert cert["e_set_member"] is True and cert["t_set_member"] is True


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
