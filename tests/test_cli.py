"""Command-line surface: outputs, exit codes, config handling."""

import cmath
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wco
from wco import cli, operators, spaces, symbols, verify
from wco.cli import main, parse_complex, parse_polynomial
from wco.spaces import Binomial, Exponential, QuadratureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    """Run an argv the argument parser must reject; return its exit code."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


def strict_json(text):
    """json.loads that refuses NaN and Infinity literals."""
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestParsers:
    def test_complex_forms(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("-0.3+0.2i") == -0.3 + 0.2j
        assert parse_complex("1.5i") == 1.5j
        assert parse_complex("2j") == 2j

    def test_polynomial_monomial(self):
        f = parse_polynomial("z^3", 8)
        assert f.coeffs[3] == 1.0 and np.sum(np.abs(f.coeffs)) == 1.0

    def test_polynomial_with_coefficients(self):
        f = parse_polynomial("1 + 0.5*z - (0.25+1i)*z^2", 4)
        assert f.coeffs[0] == 1.0
        assert f.coeffs[1] == 0.5
        assert f.coeffs[2] == -(0.25 + 1j)

    def test_polynomial_bare_z_and_signs(self):
        f = parse_polynomial("-z + 2*z^2", 3)
        assert f.coeffs[1] == -1.0 and f.coeffs[2] == 2.0

    def test_polynomial_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_polynomial("z**2", 4)

    @pytest.mark.parametrize("text, term", [
        ("nan", "nan"),
        ("1 + 1e400*z", "+1e400*z"),
        ("z - (1+nanj)*z^2", "-(1+nanj)*z^2"),
    ])
    def test_polynomial_rejects_non_finite_coefficients(self, text, term):
        with pytest.raises(ValueError, match=re.escape(f"{term!r} is not finite")):
            parse_polynomial(text, 4)

    @pytest.mark.parametrize("text, message", [
        ("", "empty polynomial"),
        ("  ", "empty polynomial"),
        ("1 + (1+2x)*z", "cannot parse coefficient in term '+(1+2x)*z'"),
        ("z + z^5", "term '+z^5' exceeds the truncation order 4"),
    ], ids=["empty", "blank", "bad-coefficient", "above-order"])
    def test_polynomial_refusals_name_their_term(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_polynomial(text, 4)
        assert str(info.value) == message


def complex_bits(z) -> bytes:
    """The bytes of a complex double: equal values with different signed
    zeros differ."""
    return np.complex128(z).tobytes()


finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(z=finite_complex)
def test_parse_complex_round_trips_repr(z):
    assert complex_bits(parse_complex(repr(z))) == complex_bits(z)
    assert complex_bits(parse_complex(repr(z).replace("j", "i"))) == complex_bits(z)


@settings(max_examples=200, deadline=None)
@given(terms=st.dictionaries(st.integers(0, 12), finite_complex, min_size=1), star=st.booleans())
def test_parse_polynomial_round_trips_rendered_terms(terms, star):
    times = "*" if star else ""
    text = "+".join(f"({z.real!r}{z.imag:+}i){times}z^{k}" for k, z in terms.items())
    want = np.zeros(13, dtype=complex)
    for k, z in terms.items():
        want[k] = z
    assert parse_polynomial(text, 12).coeffs.tobytes() == want.tobytes()


class TestClassifyCommand:
    def test_flat_weights_rejected(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "2", "2")
        payload = json.loads(out)
        assert code == 1
        assert payload["variant"] == "NotHospitable"
        assert payload["lambda"] == pytest.approx(1.75, abs=1e-12)

    def test_hardy(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "1", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["variant"] == "Binomial"
        assert payload["lambda"] == pytest.approx(1.0)
        assert payload["eta"] == pytest.approx(1.0)

    def test_beta_file_mismatch(self, capsys, tmp_path):
        beta = [float(np.sqrt(j + 1.0)) for j in range(17)]
        path = tmp_path / "dirichlet.json"
        path.write_text(json.dumps({"order": 16, "beta": beta}))
        code, out, _ = run_cli(capsys, "classify", "--beta-file", str(path))
        payload = json.loads(out)
        assert code == 1
        assert payload["reason"] == "coefficient-mismatch"
        assert payload["mismatch"]["index"] == 3

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == 2
        assert "error" in err

    def test_non_finite_weights_are_usage_errors(self, capsys):
        # rejected by the argument parser, like every other float argument
        for argv in (("nan", "1"), ("1", "inf")):
            code, out, err = run_usage_error(capsys, "classify", *argv)
            assert code == 2 and out == ""
            assert "finite" in err

    def test_weights_beyond_float_range_are_usage_errors(self, capsys):
        # beta2^2 underflows to 0 and beta1^4 / beta2^2 is inf / inf
        for beta1, beta2 in (("1", "1e-170"), ("1e100", "1e160")):
            code, out, err = run_cli(capsys, "classify", beta1, beta2)
            assert code == 2 and out == ""
            assert "floating-point range" in err


class TestCheckCommand:
    def test_hardy_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--family", "hardy",
            "--a0", "0.5", "--a1", "0.1", "--c", "1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["pass"] is True

    def test_large_eta_bergman_pair_passes(self, capsys):
        # k(0.5) = 2^30: the ODE residual is judged relative to its terms
        code, out, _ = run_cli(
            capsys, "check", "--family", "bergman", "--eta", "30",
            "--a0", "0.3", "--a1", "0.2", "--c", "1",
        )
        payload = strict_json(out)
        assert code == 0, [c for c in payload["checks"] if not c["pass"]]
        ode = next(c for c in payload["checks"] if c["name"] == "generating-ode")
        assert ode["residual"] <= 1e-15

    def test_nonreal_c_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--family", "hardy", "--order", "32",
            "--a0", "0.5", "--a1", "0.1", "--c", "1+0.2i",
        )
        payload = json.loads(out)
        assert code == 1
        failing = [c["name"] for c in payload["checks"] if not c["pass"]]
        assert "moment-0" in failing

    def test_non_finite_symbol_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--family", "hardy", "--a0", "nan", "--a1", "0.2", "--c", "1"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert "not finite" in captured.err

    def test_skipped_kernel_identity_is_strict_json(self, capsys):
        # phi(w) leaves the disk, so the kernel oracle is skipped
        code, out, _ = run_cli(
            capsys, "check", "--family", "hardy",
            "--a0", "0.5", "--a1", "2", "--c", "1",
        )
        assert code == 1
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        kernel_check = checks["kernel-identity"]
        assert kernel_check["residual"] is None and kernel_check["pass"] is False
        assert kernel_check["notes"].startswith("skipped:")

    @pytest.mark.parametrize(
        "space_args",
        [["--family", "fock", "--b", "1"],
         ["--family", "binomial", "--lam", "0.5", "--eta", "2"]],
        ids=["fock", "binomial"],
    )
    def test_selfmap_fails_at_unit_a0(self, capsys, space_args):
        # the empty interval's endpoint formulas are both 0 at |a0| = 1, a1 = 0
        code, out, _ = run_cli(
            capsys, "check", *space_args, "--a0", "1", "--a1", "0", "--c", "1",
            "--order", "16",
        )
        assert code == 1
        selfmap = {c["name"]: c for c in strict_json(out)["checks"]}["selfmap"]
        assert selfmap["pass"] is False and selfmap["residual"] is None
        assert ">= 1" in selfmap["notes"]

    def test_selfmap_fails_a_complex_a1_outside_the_disk(self, capsys):
        # sup |phi| = 1.00074: the image circle of phi leaves the disk
        code, out, _ = run_cli(
            capsys, "check", "--family", "hardy", "--a0", "0.3", "--a1", "0.06+0.57i", "--c", "1",
        )
        assert code == 1
        selfmap = {c["name"]: c for c in strict_json(out)["checks"]}["selfmap"]
        assert selfmap["pass"] is False and selfmap["oracle"] == "exact image circle"
        assert selfmap["residual"] == pytest.approx(7.39e-4, rel=1e-3)

    @pytest.mark.parametrize("a1", ["0.1", "0.1+0.1i"], ids=["real-a1", "complex-a1"])
    def test_pole_of_phi_in_the_disk_is_a_domain_error(self, capsys, a1):
        code, out, err = run_cli(
            capsys, "check", "--family", "bergman", "--eta", "2", "--a0", "1.2", "--a1", a1,
            "--c", "1",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: rho*|a0|*lam must be < 1 (got 1.2); phi is not analytic on the "
            "closed disk otherwise\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # the kernel residual's difference is subnormal
            ["--family", "hardy", "--a0", "0.3", "--a1", "0.2", "--c", "1e-300"],
            # c^2/a1^2 and 1/a1^2 of the Gaussian bound leave the double range
            ["--family", "fock", "--b", "1", "--a0", "0.3", "--a1", "0.2", "--c", "1e160"],
            ["--family", "fock", "--b", "1", "--a0", "0.3", "--a1", "1e-170", "--c", "1"],
        ],
        ids=["hardy-c-1e-300", "fock-c-1e160", "fock-a1-1e-170"],
    )
    def test_symbols_far_from_one_get_a_report(self, capsys, argv):
        code, out, err = run_cli(capsys, "check", *argv)
        assert code in (0, 1) and err == ""
        checks = {c["name"]: c for c in strict_json(out)["checks"]}
        assert checks["kernel-identity"]["residual"] is not None
        if "fock" in argv:
            assert checks["norm-bound-dominance"]["pass"] is True

    def test_tail_far_past_the_term_budget_is_finite(self, capsys):
        # |w|^2/b^2 = 1.3e21: the whole series log k(|w|^2) bounds the tail
        code, out, _ = run_cli(
            capsys, "check", "--family", "fock", "--b", "1e-11", "--order", "5",
            "--a0", "0.3", "--a1", "0.2", "--c", "1",
        )
        notes = {c["name"]: c for c in strict_json(out)["checks"]}["kernel-identity"]["notes"]
        log10_mass = float(re.fullmatch(r".*\(log10 (.*)\)", notes).group(1))
        assert log10_mass == pytest.approx(5.645828265e20, rel=1e-9)

    @pytest.mark.parametrize(
        "argv, mass",
        [
            (["--family", "hardy", "--order", "340"], "8.226e-303"),
            # |w|^(2(N+1)) / (1 - |w|^2) is subnormal, then below every double
            (["--family", "hardy", "--order", "349"], "below the double range (log10 -310.1)"),
            (["--family", "hardy", "--order", "512"], "below the double range (log10 -454.5)"),
            (["--family", "fock", "--b", "1e-11", "--order", "5"],
             "beyond the double range (log10 5.645828264742277e+20)"),
        ],
        ids=["normal", "subnormal", "underflow", "overflow"],
    )
    def test_tail_mass_outside_the_normal_range_is_noted_by_its_log(self, capsys, argv, mass):
        _, out, _ = run_cli(capsys, "check", *argv, "--a0", "0.3", "--a1", "0.2", "--c", "1")
        notes = {c["name"]: c for c in strict_json(out)["checks"]}["kernel-identity"]["notes"]
        assert notes == f"truncated-kernel tail mass {mass}"

    def test_fock_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--family", "fock", "--b", "1",
            "--a0", "0.3", "--a1", "0.5", "--c", "2",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_report_lines(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "report", "--family", "hardy", "--order", "32",
            "--a0", "0.5", "--a1", "0.1", "--c", "1",
            "--output", str(out_path),
        )
        assert code == 0
        assert "overall: PASS" in out
        saved = json.loads(out_path.read_text())
        assert saved["pass"] is True

    def test_report_float_options_must_be_finite(self, capsys):
        for option in (["--eta", "nan"], ["--lam", "inf"]):
            code, out, err = run_usage_error(
                capsys, "report", "--family", "binomial", "--lam", "0.5", "--eta", "1",
                *option, "--a0", "0.3", "--a1", "0.2", "--c", "1",
            )
            assert code == 2 and out == ""
            assert option[0] in err

    def test_report_output_is_strict_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "report", "--family", "hardy", "--order", "32",
            "--a0", "0.5", "--a1", "2", "--c", "1", "--output", str(out_path),
        )
        assert code == 1
        saved = strict_json(out_path.read_text())
        assert [c["residual"] for c in saved["checks"] if c["name"] == "kernel-identity"] == [None]


class TestRegionCommand:
    def test_interval_values(self, capsys):
        code, out, _ = run_cli(capsys, "region", "0.5", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["a1_min"] == pytest.approx(-0.75)
        assert payload["a1_max"] == pytest.approx(0.25)

    def test_bad_lambda_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "region", "0.5", "1.5")
        assert code == 2
        assert "error" in err

    def test_exponential_family_is_lambda_zero(self, capsys):
        # phi is affine at lam = 0: |a0| + |a1| rho <= rho, for any rho > 0
        for argv, half_width in ((("0.5", "0"), 0.5), (("0.5", "0", "2"), 0.75)):
            code, out, _ = run_cli(capsys, "region", *argv)
            payload = json.loads(out)
            assert code == 0 and payload["admissible"] is True
            assert (payload["a1_min"], payload["a1_max"]) == (-half_width, half_width)
        code, _, err = run_cli(capsys, "region", "0.5", "-0.1")
        assert code == 2 and "0 <= lam <= 1" in err

    def test_non_finite_lambda_or_radius_is_usage_error(self, capsys):
        for argv in (("0.3", "0.5", "nan"), ("0.3", "inf"), ("0.3", "nan", "1")):
            code, out, err = run_usage_error(capsys, "region", *argv)
            assert code == 2 and out == ""
            assert "not finite" in err

    def test_unparsable_a0_is_usage_error(self, capsys):
        code, out, err = run_usage_error(capsys, "region", "abc", "1")
        assert code == 2 and out == ""
        assert err.endswith("wco region: error: argument a0: cannot parse complex number 'abc'\n")

    @pytest.mark.parametrize("argv, message", [
        (("0.5", "1", "0"), "rho must be positive (got 0.0)"),
        (("1", "1"), "rho*|a0|*lam must be < 1 (got 1.0); "
                     "phi is not analytic on the closed disk otherwise"),
    ], ids=["rho-0", "pole-on-the-circle"])
    def test_interval_that_does_not_exist_is_usage_error(self, capsys, argv, message):
        assert run_cli(capsys, "region", *argv) == (2, "", f"error: {message}\n")


class TestQuadCommand:
    def test_bergman_monomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "quad", "--family", "binomial", "--lam", "1", "--eta", "2",
            "--f", "z^3",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["series_norm_sq"] == pytest.approx(0.25, rel=1e-10)
        assert payload["quadrature_norm_sq"] == pytest.approx(0.25, rel=1e-8)

    def test_small_eta_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "quad", "--family", "bergman", "--eta", "0.5", "--f", "z",
        )
        assert code == 2
        assert "error" in err

    def test_non_finite_space_options_are_usage_errors(self, capsys):
        for option in (["--family", "fock", "--b", "nan"], ["--family", "flat", "--level", "inf"]):
            code, out, err = run_usage_error(capsys, "quad", *option, "--f", "z")
            assert code == 2 and out == ""
            assert "not finite" in err

    def test_high_degree_at_large_eta(self, capsys):
        # the 200-node Gauss-Jacobi rule of (1 - s)^498
        code, out, err = run_cli(
            capsys, "quad", "--family", "bergman", "--eta", "500", "--order", "398",
            "--f", "1+z^398",
        )
        assert code == 0 and err == ""
        assert strict_json(out)["relative_gap"] <= 1e-12

    def test_series_json_file_input(self, capsys, tmp_path):
        payload = {"order": 3, "coeffs": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(
            capsys, "quad", "--family", "hardy", "--f", str(path), "--order", "16",
        )
        assert code == 0
        assert json.loads(out)["series_norm"] == pytest.approx(1.0)

    def test_missing_series_json_file_is_named(self, capsys, tmp_path):
        """A --f ending in .json is a file: a missing one is named, not
        parsed as a polynomial term."""
        path = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "quad", "--family", "hardy", "--f", str(path))
        assert code == 2 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


class TestSweepCommand:
    def test_small_grid_json(self, capsys, tmp_path):
        config = {
            "space": {"family": "binomial", "lambda": 0.5, "eta": 1.0},
            "grid": {
                "a0_mod": [0.2, 0.4],
                "a0_arg": {"start": 0.0, "stop": 3.14, "count": 2},
                "a1_fraction": [-0.5, 0.5],
                "c": [1.0],
            },
            "order": 24,
            "seed": 7,
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out_path = tmp_path / "rows.json"
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--output", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["pass"] is True
        assert len(payload["rows"]) == 8
        assert [r["index"] for r in payload["rows"]] == list(range(8))
        assert all(r["deviation"] <= 1e-10 for r in payload["rows"])

    def test_csv_output(self, capsys, tmp_path):
        config = {
            "space": {"family": "fock", "b": 1.0},
            "grid": {"a0_mod": [0.2], "a0_arg": [0.5], "a1_fraction": [0.5], "c": [1.0]},
            "order": 16,
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--csv")
        assert code == 0
        header = out.strip().split("\n")[0]
        assert "deviation" in header and "m2" in header

    def test_deterministic_across_workers(self, capsys, tmp_path):
        good = {
            "space": {"family": "binomial", "lambda": 1.0, "eta": 2.0},
            "grid": {"a0_mod": [0.2, 0.5], "a0_arg": [0.0, 1.0], "a1_fraction": [0.7], "c": [1.0]},
            "order": 16,
        }
        # a fraction outside [-1, 1] fails its own cells and no others
        bad = {
            "space": {"family": "binomial", "lambda": 0.5, "eta": 1.0},
            "grid": {"a0_mod": [0.3], "a1_fraction": [0.5, 1.5]},
            "order": 16,
        }
        for config, expected_code in ((good, 0), (bad, 1)):
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps(config))
            outputs = []
            for workers in ("1", "2"):
                code, out, _ = run_cli(
                    capsys, "sweep", "--config", str(cfg), "--workers", workers
                )
                assert code == expected_code
                outputs.append(out)
            assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0])["rows"]
        assert [r["pass"] for r in rows] == [True, False]
        assert "error" not in rows[0] and rows[0]["deviation"] <= 1e-10
        assert rows[1]["a1_fraction"] == 1.5
        assert "fraction must lie in [-1, 1]" in rows[1]["error"]

    def test_fock_cells_outside_the_selfmap_region_fail(self, capsys, tmp_path):
        # a1_fraction scales the exact interval of lam = 0, [|a0| - 1, 1 - |a0|]
        config = {
            "space": {"family": "fock", "b": 1.0},
            "grid": {"a0_mod": [0.3, 1.2], "a1_fraction": [1.0, 1.5, -2.0]},
            "order": 16,
        }
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        payload = json.loads(out)
        rows = payload["rows"]
        assert payload["pass"] is False
        assert [r["pass"] for r in rows] == [True] + [False] * 5
        assert rows[0]["a1"] == pytest.approx(0.7) and rows[0]["deviation"] <= 1e-10
        for row in rows[1:3]:
            assert "fraction must lie in [-1, 1]" in row["error"]
        for row in rows[3:]:
            assert "the interval is empty" in row["error"]

    def test_non_finite_config_value_names_its_key(self, capsys, tmp_path):
        base = {"space": {"family": "binomial", "lambda": 0.5, "eta": 1.0}, "order": 16}
        cases = (
            ({"grid": {"a0_mod": [0.3, float("nan")]}}, "grid.a0_mod[1]"),
            ({"space": {"family": "binomial", "lambda": float("nan")}}, "space.lambda"),
            ({"grid": {"a0_arg": {"start": 0.0, "stop": float("inf"), "count": 2}}},
             "grid.a0_arg.stop"),
        )
        for change, key in cases:
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps({**base, **change}))
            code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
            assert code == 2 and out == ""
            assert key in err and "not finite" in err


PAIR = ["--a0", "0.3", "--a1", "0.2", "--c", "1"]
SWEEP = {"space": {"family": "binomial", "lambda": 0.5, "eta": 1.0}, "order": 16}
SWEEP_LAMBDA_2 = {
    "space": {"family": "binomial", "lambda": 2.0}, "grid": {"a0_mod": [0.2, 0.4]}, "order": 32,
}
#: order-6 weight files spanning the double range: Fock b = 1e-30 through
#: beta(5), then beta(6) = 1e150, where the quotient z k'/k of the general
#: shape overflows and phi comes out NaN; and the reverse, b = 1e30 then
#: 1e-150, where a1 beta(1)^2 / conj(a0) scales phi past the range
SPANNING, SPANNING_REVERSE = (
    {"order": 6, "beta": [math.sqrt(math.factorial(j)) * b**j for j in range(6)] + [last]}
    for b, last in ((1e-30, 1e150), (1e30, 1e-150))
)


@pytest.mark.parametrize(
    "content, argv, message",
    [
        ({"beta": [1, 1, 1]}, ["check", "--beta-file", "{file}", *PAIR], '"order" key'),
        ({"beta": [1, 1, 1]}, ["classify", "--beta-file", "{file}"], '"order" key'),
        ([1, 1, 1], ["check", "--beta-file", "{file}", *PAIR], "JSON object"),
        ({"order": 2, "beta": [1, 1, 10**400]}, ["classify", "--beta-file", "{file}"], '"beta"'),
        ({"coeffs": [[0, 0], [1, 0]]}, ["quad", "--family", "hardy", "--f", "{file}"],
         '"order" key'),
        ([SWEEP], ["sweep", "--config", "{file}"], "JSON object"),
        ({**SWEEP, "space": [1]}, ["sweep", "--config", "{file}"], "space must be a JSON object"),
        ({**SWEEP, "grid": {"c": [10**400]}}, ["sweep", "--config", "{file}"], "grid.c[0]"),
        ({**SWEEP, "grid": {"a0_mod": {"start": 0.1}}}, ["sweep", "--config", "{file}"],
         'grid.a0_mod has no "stop" key'),
        ({**SWEEP, "order": 1}, ["sweep", "--config", "{file}"], "order must be an integer >= 2"),
        ({**SWEEP, "order": -1}, ["sweep", "--config", "{file}"], "order must be an integer >= 2"),
        ({**SWEEP, "order": 2.5}, ["sweep", "--config", "{file}"], "order must be an integer >= 2"),
        (None, ["check", "--family", "hardy", "--order", "-3", *PAIR],
         "--order must be an integer >= 2"),
        (SWEEP, ["sweep", "--config", "{file}", "--workers", "0"],
         "--workers must be an integer >= 1"),
        (SWEEP, ["sweep", "--config", "{file}", "--workers", "-5"],
         "--workers must be an integer >= 1"),
        ({**SWEEP, "grid": {"a1_fraction": []}}, ["sweep", "--config", "{file}"],
         "grid.a1_fraction is empty"),
        ({**SWEEP, "grid": {"a1_fraction": []}}, ["sweep", "--config", "{file}", "--csv"],
         "grid.a1_fraction is empty"),
        ({**SWEEP, "grid": {"a0_mod": {"start": 0.1, "stop": 0.5, "count": 0}}},
         ["sweep", "--config", "{file}"], "grid.a0_mod.count must be an integer >= 1"),
        ({**SWEEP, "grid": {"a0_mod": {"start": 0.1, "stop": 0.5, "count": 0}}},
         ["sweep", "--config", "{file}", "--csv"], "grid.a0_mod.count must be an integer >= 1"),
        ({"order": 2, "coeffs": [[float("nan"), 0], [1, 0], [0, 0]]},
         ["quad", "--family", "hardy", "--order", "2", "--f", "{file}"],
         "series file value coeffs[0][0] is not finite (nan)"),
        ({"order": 2, "beta": [1, float("nan"), 1]}, ["classify", "--beta-file", "{file}"],
         "weight file value beta[1] is not finite (nan)"),
        ({"order": 2, "beta": [1, 1, float("inf")]}, ["check", "--beta-file", "{file}", *PAIR],
         "weight file value beta[2] is not finite (inf)"),
        (None, ["check", "--family", "bergman", "--eta", "0", *PAIR], "eta must be positive"),
        (None, ["check", "--family", "binomial", "--lam", "0.5", "--eta", "0", *PAIR],
         "eta must be positive"),
        # the sweep builds its space once, before any cell: no rows
        ({**SWEEP, "space": {"family": "binomial", "lambda": 0.5, "eta": 0}},
         ["sweep", "--config", "{file}"], "eta must be positive (got 0.0)"),
        ({**SWEEP, "space": {"family": "fock", "b": 0}}, ["sweep", "--config", "{file}"],
         "the scale b must be positive"),
        ({**SWEEP, "space": {"family": "fock", "b": -1}}, ["sweep", "--config", "{file}"],
         "the scale b must be positive"),
        ({**SWEEP, "space": {"family": "fock", "b": -1}},
         ["sweep", "--config", "{file}", "--csv"], "the scale b must be positive"),
        ({**SWEEP, "space": {"family": "fock", "b": 1}, "order": 200},
         ["sweep", "--config", "{file}"], "generating coefficient 171 is not normal"),
        # a lambda above 1 still builds weights, but no cell over it is hospitable
        (SWEEP_LAMBDA_2, ["sweep", "--config", "{file}"], "space.lambda must lie in (0, 1]"),
        (SWEEP_LAMBDA_2, ["sweep", "--config", "{file}", "--csv"],
         "space.lambda must lie in (0, 1]"),
        # b^2 underflows to 0 (b = 1e-200) or to a subnormal (b = 1e-155)
        (None, ["check", "--family", "fock", "--b", "1e-200", *PAIR],
         "b_sq must be a positive normal double (got 0.0)"),
        (None, ["quad", "--family", "fock", "--b", "1e-200", "--f", "z"],
         "b_sq must be a positive normal double (got 0.0)"),
        ({**SWEEP, "space": {"family": "fock", "b": 1e-200}}, ["sweep", "--config", "{file}"],
         "b_sq must be a positive normal double (got 0.0)"),
        (None, ["check", "--family", "fock", "--b", "1e-155", *PAIR],
         f"b_sq must be a positive normal double (got {1e-155 * 1e-155})"),
        # refused before any check: the boundary grid of a NaN phi reads no
        # excess, and numpy would warn on stderr
        (SPANNING, ["check", "--beta-file", "{file}", *PAIR],
         "phi coefficient 6 is not finite: (nan+nanj)"),
        (SPANNING, ["report", "--beta-file", "{file}", *PAIR],
         "phi coefficient 6 is not finite: (nan+nanj)"),
        (SPANNING_REVERSE, ["check", "--beta-file", "{file}", *PAIR],
         "phi coefficient 6 is not finite: (inf+0j)"),
        (SPANNING_REVERSE, ["report", "--beta-file", "{file}", *PAIR],
         "phi coefficient 6 is not finite: (inf+0j)"),
        # a large c with a0 near the circle takes section entries past the
        # double range: refused by index, with no RuntimeWarning
        (None, ["check", "--family", "bergman", "--eta", "3", "--order", "64", "--a0", "0.9",
                "--a1", "0.05", "--c", "1e305"], "section entry (20, 48) is not finite: (inf+0j)"),
        (None, ["check", "--family", "dirichlet", "--order", "64", "--a0", "0.95",
                "--a1", "0.04", "--c", "1e307"], "section entry (9, 44) is not finite"),
        # a finite section whose M - M* leaves the double range
        (None, ["check", "--family", "hardy", "--a0", "0.3", "--a1", "0.2", "--c", "1.5e308i"],
         "|M - M*| at entry (0, 0) is beyond the double range"),
        # classify reads BETA1 BETA2 or a weight file, never both, and the
        # order of BETA1 BETA2 is 2
        ({"order": 2, "beta": [1, 1, 1]}, ["classify", "2", "2", "--beta-file", "{file}"],
         "BETA1 BETA2 are order-2 weights: give no"),
        (None, ["classify", "1.5", "2", "--order", "10"], "BETA1 BETA2 are order-2 weights: give no"),
    ],
    ids=[
        "check-beta-file-without-order", "classify-beta-file-without-order",
        "beta-file-list", "beta-file-int-beyond-double", "series-file-without-order",
        "sweep-config-list", "sweep-space-list", "sweep-int-beyond-double",
        "sweep-axis-without-stop", "sweep-order-1", "sweep-order-negative",
        "sweep-order-fractional", "negative-order-option", "sweep-workers-0",
        "sweep-workers-negative", "sweep-empty-axis-json", "sweep-empty-axis-csv",
        "sweep-zero-count-json", "sweep-zero-count-csv", "series-file-nan",
        "beta-file-nan", "beta-file-infinity", "bergman-eta-0", "binomial-eta-0",
        "sweep-eta-0", "sweep-b-0", "sweep-b-negative-json", "sweep-b-negative-csv",
        "sweep-fock-order-200", "sweep-lambda-2-json", "sweep-lambda-2-csv",
        "check-fock-b-1e-200", "quad-fock-b-1e-200", "sweep-fock-b-1e-200",
        "check-fock-b-1e-155", "check-spanning-file", "report-spanning-file",
        "check-spanning-file-reverse", "report-spanning-file-reverse",
        "check-bergman-section-overflow", "check-dirichlet-section-overflow",
        "check-hardy-deviation-overflow",
        "classify-weights-and-file", "classify-weights-and-order",
    ],
)
def test_malformed_input_is_usage_error(capsys, tmp_path, content, argv, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, *(str(path) if a == "{file}" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--lam", "0.5", "--eta", "300", "--order", "64", "--a0", "0.9", "--a1", "0.001",
          "--c", "1e290"], "psi coefficient 14 is not finite: (inf+0j)"),
        (["--lam", "0.25", "--eta", "10", "--a0", "0.3", "--a1", "0.2", "--c", "1.5e308i"],
         "|M - M*| at entry (0, 0) is beyond the double range"),
    ],
    ids=["dilated-psi", "pair-refusal-first"],
)
def test_dilation_refusal_is_usage_error(capsys, argv, message):
    """A pair on a dilated (lam < 1) space is refused on its own symbols and
    section, as a lam = 1 pair is: first its psi leaves the double range
    (the pair of the xfail below at c = 1e290), then its |M - M*| overflows."""
    code, out, err = run_cli(capsys, "check", "--family", "binomial", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.xfail(strict=True, reason="absolute identity tolerance, ROADMAP item 1")
@pytest.mark.parametrize(
    "argv",
    [
        ["--lam", "0.5", "--eta", "300", "--a0", "0.9", "--a1", "0.001", "--c", "1e250"],
        ["--lam", "1", "--eta", "300", "--a0", "0.6364", "--a1", "0.001", "--c", "1e200"],
    ],
    ids=["lam-0.5", "lam-1"],
)
def test_exact_pair_with_huge_entries_passes_the_section_checks(capsys, argv):
    """Two exactly Hermitian pairs (real a0, a1 and c, a self-map phi) whose
    sections reach max |M| = 1.1e297 and 1.1e247: |M - M*| is rounding at
    that size, 9.4e281 and 4.3e231, but the identity tolerance is absolute."""
    _, out, _ = run_cli(capsys, "check", "--family", "binomial", "--order", "64", *argv)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["selfmap"]["pass"]
    section = ("hermitian-deviation", "moment-0", "moment-1", "moment-2")
    assert all(checks[name]["pass"] for name in section)


def test_dilate_whose_raw_coefficients_overflow_is_judged(capsys):
    """The pair's lam = 1 dilate has raw coefficients [z^i](psi phi^j) that
    leave the double range (entry (32, 29) is inf - inf), but the section,
    filled normalized, is finite, so the report runs and fails: a1 = 1 is no
    self-map, and the section checks and the kernel identity fail."""
    code, out, err = run_cli(
        capsys, "check", "--family", "binomial", "--lam", "0.3", "--eta", "30", "--order", "32",
        "--a0", "0.5", "--a1", "1", "--c", "1e300",
    )
    assert (code, err) == (1, "")
    failing = [check["name"] for check in json.loads(out)["checks"] if not check["pass"]]
    assert failing == [
        "selfmap", "hermitian-deviation", "moment-0", "moment-1", "moment-2", "kernel-identity",
    ]


def test_dilated_section_beyond_the_range_is_usage_error(capsys):
    """A lam < 1 section whose entries leave the double range (its dilate is
    the Bergman eta = 3 pair at a0 = 0.9, c = 1e305) exits 2 with one line
    naming the first entry that is not finite."""
    code, out, err = run_cli(
        capsys, "check", "--family", "binomial", "--lam", "0.5", "--eta", "3",
        "--a0", repr(0.9 / math.sqrt(0.5)), "--a1", "0.05", "--c", "1e305",
    )
    assert (code, out, err) == (2, "", "error: section entry (20, 48) is not finite: (inf+0j)\n")


@pytest.mark.parametrize(
    "space, extra, ignored",
    [
        (["--family", "hardy"], ["--eta", "3"], "--eta"),
        (["--family", "bergman", "--eta", "2"], ["--lam", "0.5"], "--lam"),
        (["--family", "fock", "--b", "2"], ["--level", "3", "--eta", "2"], "--eta"),
        (["--family", "binomial", "--lam", "0.5", "--eta", "2"], ["--b", "1"], "--b"),
        (["--family", "dirichlet"], ["--level", "2"], "--level"),
        (["--family", "flat", "--level", "2"], ["--lam", "0.5"], "--lam"),
    ],
    ids=["hardy", "bergman", "fock", "binomial", "dirichlet", "flat"],
)
def test_space_option_the_family_ignores_is_usage_error(capsys, space, extra, ignored):
    """A parameter that the family does not read would give a verdict on a
    space that was not asked for (bergman with --lam 0.5 ran lam = 1): exit 2
    naming the first ignored option (--lam, --eta, --b, --level), in check
    and quad alike.  The family's own options still run."""
    for command in (["check", *PAIR], ["quad", "--f", "z"]):
        code, out, err = run_cli(capsys, *command, *space, *extra)
        assert (code, out, err) == (2, "", f"error: {ignored} is not read with --family {space[1]}\n")
    code, _, err = run_cli(capsys, "check", *PAIR, *space, "--order", "16")
    assert code in (0, 1) and err == ""


def test_space_option_with_a_weight_file_is_usage_error(capsys, tmp_path):
    """A weight file reads no space option: --family (named first) or a
    family parameter given with --beta-file exits 2."""
    path = tmp_path / "hardy.json"
    path.write_text(json.dumps({"order": 8, "beta": [1.0] * 9}))
    for extra, ignored in ((["--family", "fock", "--b", "2"], "--family"), (["--eta", "2"], "--eta")):
        for command in (["check", *PAIR], ["quad", "--f", "z"]):
            code, out, err = run_cli(capsys, *command, "--beta-file", str(path), *extra)
            assert (code, out, err) == (2, "", f"error: {ignored} is not read with --beta-file\n")
    code, _, err = run_cli(capsys, "quad", "--beta-file", str(path), "--f", "z")
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "space, message",
    [
        (["--family", "bergman"], "--eta is required for the bergman family"),
        (["--family", "binomial", "--lam", "0.5"],
         "--lam and --eta are required for the binomial family"),
        (["--family", "binomial", "--eta", "2"],
         "--lam and --eta are required for the binomial family"),
        ([], "specify a space: --beta-file FILE or --family "
             "{hardy,bergman,fock,binomial,dirichlet,flat}"),
        (["--family", "bargman", "--eta", "2"], "specify a space: --beta-file FILE or --family "
                                                "{hardy,bergman,fock,binomial,dirichlet,flat}"),
    ],
    ids=["bergman-without-eta", "binomial-without-eta", "binomial-without-lam", "no-space",
         "unknown-family"],
)
def test_space_that_is_not_named_in_full_is_usage_error(capsys, space, message):
    """A family without a parameter it needs, or no space at all, exits 2
    with one line naming what is missing, in check and quad alike."""
    for command in (["check", *PAIR], ["quad", "--f", "z"]):
        assert run_cli(capsys, *command, *space) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "space, weights",
    [
        (["--family", "hardy"], spaces.hardy_weights(16)),
        (["--family", "Bergman", "--eta", "3"], spaces.bergman_weights(3.0, 16)),
        (["--family", "fock"], spaces.fock_weights(1.0, 16)),
        (["--family", "fock", "--b", "0.5"], spaces.fock_weights(0.5, 16)),
        (["--family", "binomial", "--lam", "0.5", "--eta", "3"],
         spaces.family_weights(Binomial(lam=0.5, eta=3.0), 16)),
        (["--family", "dirichlet"], spaces.dirichlet_weights(16)),
        (["--family", "flat"], spaces.flat_weights(16, level=2.0)),
        (["--family", "flat", "--level", "3"], spaces.flat_weights(16, level=3.0)),
    ],
    ids=["hardy", "bergman", "fock-default", "fock", "binomial", "dirichlet", "flat-default",
         "flat"],
)
def test_each_family_builds_its_library_weights(space, weights):
    """--family NAME at --order 16 reads the library constructor's weights,
    bit for bit, with --b 1 and --level 2 when they are not given."""
    args = cli.build_parser().parse_args(["quad", "--f", "z", "--order", "16", *space])
    assert cli._weights_from_args(args).beta.tobytes() == weights.beta.tobytes()


@pytest.mark.parametrize("command", ["check", "report", "quad"])
def test_family_help_lists_every_family(capsys, command):
    code, out, _ = run_usage_error(capsys, command, "--help")
    assert code == 0
    assert "--family FAMILY hardy | bergman | fock | binomial | dirichlet | flat" in " ".join(
        out.split()
    )


def test_report_below_order_three_skips_the_ode(capsys):
    """At order 2 the generating ODE has nothing to check: the report says
    so with a null residual and fails that check, and every other runs."""
    code, out, err = run_cli(capsys, "check", "--family", "hardy", "--order", "2", *PAIR)
    assert code == 1 and err == ""
    payload = strict_json(out)
    ode = next(check for check in payload["checks"] if check["name"] == "generating-ode")
    assert ode["residual"] is None and ode["pass"] is False
    assert ode["notes"].startswith("the generating ODE needs order >= 3 (got 2)")
    assert payload["pass"] is False and len(payload["checks"]) == 9


def test_underflowing_fock_weight_is_usage_error(capsys):
    # 1/j! is subnormal from j = 171 and 0 from j = 178: the first index is named
    code, out, err = run_cli(
        capsys, "check", "--family", "fock", *PAIR, "--order", "200"
    )
    assert code == 2 and out == ""
    assert "error: generating coefficient 171 is not normal" in err


def test_quad_beyond_the_double_range_writes_no_warning(capsys):
    # a RuntimeWarning raises under the suite's warning filter
    code, out, err = run_cli(
        capsys, "quad", "--family", "fock", "--b", "1", "--order", "170", "--f", "1+z^170"
    )
    assert code == 1 and out == ""
    assert err.startswith("quadrature error: Gaussian norm quadrature not converged")
    # |z^370|^2 overflows at the outer Gauss-Laguerre nodes of b = 0.1, and
    # |f|^2 of a finite series norm at z = 1 on the circle
    for space_args, f, domain in (
        (["--family", "fock", "--b", "0.1", "--order", "400"], "z^370", "Gaussian"),
        (["--family", "hardy", "--order", "2"], "9e153+9e153*z", "circle"),
    ):
        code, out, err = run_cli(capsys, "quad", *space_args, "--f", f)
        assert code == 1 and out == ""
        assert err.startswith(f"quadrature error: {domain} norm quadrature not converged")
    for space_args, f in ((["--family", "hardy"], "1e308+1e308*z"),
                          (["--family", "bergman", "--eta", "2"], "1e200*z^3")):
        code, out, err = run_cli(capsys, "quad", *space_args, "--f", f)
        assert code == 2 and out == ""
        assert err == "error: the series norm of f or its square leaves the double range\n"


@pytest.mark.parametrize(
    "config, message",
    [
        # "lam" ran lambda = 1, and fock ran b = 1 with "lambda", "eta" and "a1" unread
        ({"space": {"family": "binomial", "lam": 0.5, "eta": 2}, "grid": {"a0_mod": [0.3]},
          "order": 16}, "space.lam is not read (read: family, lambda, eta)"),
        ({"space": {"family": "fock", "lambda": 0.5, "eta": 2}, "grid": {"a1": [0.9]}},
         "space.lambda is not read (read: family, b)"),
        ({"space": {"family": "fock", "b": 2}, "grid": {"a1": [0.9]}, "order": 16},
         "grid.a1 is not read (read: a0_mod, a0_arg, a1_fraction, c)"),
        ({**SWEEP, "ordr": 32}, "ordr is not read (read: space, grid, order, seed)"),
    ],
    ids=["binomial-lam", "fock-lambda", "grid-a1", "top-level"],
)
@pytest.mark.parametrize("as_csv", [False, True], ids=["json", "csv"])
def test_sweep_key_the_run_does_not_read_is_usage_error(capsys, tmp_path, config, message, as_csv):
    """A sweep config key that the run does not read exits 2 naming the
    first one (top level, then space, then grid), before any cell runs."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path), *(["--csv"] if as_csv else []))
    assert (code, out, err) == (2, "", f"error: sweep config key {message}\n")


@pytest.mark.parametrize("as_csv", [False, True], ids=["json", "csv"])
def test_sweep_over_a_family_it_does_not_sweep_is_usage_error(capsys, tmp_path, as_csv):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**SWEEP, "space": {"family": "hardy"}}))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path), *(["--csv"] if as_csv else []))
    assert (code, out, err) == (2, "", "error: sweep supports binomial and fock families (got 'hardy')\n")


def test_sweep_axis_given_as_a_number_is_one_point(capsys, tmp_path):
    """A bare number on a grid axis is the axis of that one point."""
    outputs = []
    for axis in (0.3, [0.3]):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({**SWEEP, "grid": {"a0_mod": axis, "a1_fraction": [0.5, -0.5]}}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert [row["a0_mod"] for row in strict_json(outputs[0])["rows"]] == [0.3, 0.3]


def test_sweep_takes_its_order_from_the_config_only(capsys, tmp_path):
    """A sweep's order is its config's "order" (default 64): sweep has no
    --order option."""
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"space": SWEEP["space"], "grid": {"a0_mod": [0.2]}}))
    code, out, err = run_usage_error(capsys, "sweep", "--config", str(path), "--order", "32")
    assert code == 2 and out == ""
    assert err.endswith("wco: error: unrecognized arguments: --order 32\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert (code, err) == (0, "") and strict_json(out)["order"] == cli.DEFAULT_ORDER


@pytest.mark.parametrize("as_csv", [False, True], ids=["json", "csv"])
def test_sweep_writes_only_where_its_output_option_says(capsys, tmp_path, as_csv):
    """A sweep's output path is --output; a config "output" key is not read
    and exits 2 before any cell runs, with nothing written."""
    path, rows = tmp_path / "sweep.json", tmp_path / "rows.txt"
    path.write_text(json.dumps({**SWEEP, "output": str(rows)}))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path), *(["--csv"] if as_csv else []))
    assert (code, out) == (2, "") and not rows.exists()
    assert err == "error: sweep config key output is not read (read: space, grid, order, seed)\n"


@pytest.mark.parametrize("as_csv", [False, True], ids=["json", "csv"])
def test_sweep_cell_past_the_double_range_is_an_error_row(capsys, tmp_path, as_csv):
    # at a0 = 0.97, c = 1e308 psi overflows; at a0 = 0.3 the section stays in
    # range and fails on its deviation; the c = 1 rows pass
    config = {"space": {"family": "binomial", "lambda": 1.0, "eta": 3.0}, "order": 64,
              "grid": {"a0_mod": [0.3, 0.97], "c": [1, 1e308]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path), *(["--csv"] if as_csv else []))
    assert code == 1 and err == ""
    rows = list(csv.DictReader(io.StringIO(out))) if as_csv else strict_json(out)["rows"]
    assert [str(row["pass"]) for row in rows] == ["True", "False", "True", "False"]
    assert rows[3]["error"] == "psi coefficient 1 is not finite: (inf+0j)"
    assert all(not row.get("error") for row in rows[:3])


def test_subnormal_fock_weight_is_usage_error(capsys):
    # 1/171! is subnormal: its weight would no longer be the family's
    code, out, err = run_cli(capsys, "check", "--family", "fock", *PAIR, "--order", "171")
    assert code == 2 and out == ""
    assert "error: generating coefficient 171 is not normal" in err
    # an overflowing coefficient is named the same way, with no RuntimeWarning
    for space_args, order, index in (
        (["--family", "bergman", "--eta", "300"], "2000", 1022),
        (["--family", "fock", "--b", "0.001"], "100", 67),
    ):
        code, out, err = run_cli(capsys, "check", *space_args, *PAIR, "--order", order)
        assert code == 2 and out == ""
        assert err == f"error: generating coefficient {index} is not finite: inf\n"
    code, out, _ = run_cli(capsys, "check", "--family", "fock", *PAIR, "--order", "170")
    assert code in (0, 1) and json.loads(out)["checks"]


#: one space per family the CLI builds
FAMILY_ARGS = [
    ["--family", "hardy"],
    ["--family", "fock", "--b", "1.2"],
    ["--family", "bergman", "--eta", "2"],
    ["--family", "binomial", "--lam", "0.5", "--eta", "1"],
    ["--family", "dirichlet"],
    ["--family", "flat"],
]


@settings(max_examples=40, deadline=None)
@given(
    space=st.sampled_from(FAMILY_ARGS),
    order=st.sampled_from(["0", "1"]),
    a0=st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
    a1=st.floats(-1.0, 1.0),
    c=st.floats(-2.0, 2.0),
)
def test_check_below_order_two_is_usage_error(space, order, a0, a1, c):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "check", *space, "--order", order,
            f"--a0={a0!r}", f"--a1={a1!r}", f"--c={c!r}",
        ])
    assert code == 2 and out.getvalue() == ""
    assert "error" in err.getvalue()


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def any_family(draw) -> list[str]:
    """``--family`` and its options, one of the six families the CLI builds."""
    family = draw(st.sampled_from(["hardy", "fock", "bergman", "binomial", "dirichlet", "flat"]))
    args = ["--family", family]
    if family == "fock":
        args.append(f"--b={draw(log_uniform(1e-3, 1e3))!r}")
    if family in ("bergman", "binomial"):
        args.append(f"--eta={draw(log_uniform(0.5, 1000.0))!r}")
    if family == "binomial":
        args.append(f"--lam={draw(st.floats(0.0, 1.0, exclude_min=True))!r}")
    return args


def polar(modulus, real=st.just(False)):
    """A complex number of the given modulus, at any argument or (when
    ``real`` draws True) on the real line, of either sign."""
    return st.tuples(modulus, st.floats(0.0, 2.0 * math.pi), real).map(
        lambda t: complex(math.copysign(t[0], math.cos(t[1]))) if t[2] else cmath.rect(t[0], t[1])
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    space=any_family(),
    order=st.sampled_from(["3", "5", "16", "64"]),
    a0=polar(st.floats(0.0, 1.0, exclude_max=True)),
    a1=polar(log_uniform(1e-300, 1.0), st.booleans()),
    c=polar(log_uniform(1e-300, 1e300), st.just(True)),
)
def test_check_writes_a_report_or_an_error_and_no_traceback(space, order, a0, a1, c):
    # symbols and scales far from 1: a traceback here is a crash on valid input
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "check", *space, "--order", order, f"--a0={a0!r}", f"--a1={a1!r}", f"--c={c!r}",
        ])
    assert code in (0, 1, 2)
    if code != 2:
        strict_json(out.getvalue())
        assert err.getvalue() == ""


def subprocess_env() -> dict:
    """The environment of a child interpreter that imports this wco."""
    src = str(Path(wco.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_scipy_or_process_pool():
    probe = (
        "import sys, wco.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env(),
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_runs_one_thread_and_restores_the_environment():
    probe = (
        "import os, wco.cli; "
        "print(len(os.listdir('/proc/self/task')), 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    env = subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    assert result.stdout.split() == ["1", "False"]


def test_cli_import_keeps_a_user_blas_thread_count():
    probe = "import os, wco.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**subprocess_env(), "OPENBLAS_NUM_THREADS": "2"}, timeout=120, check=True,
    )
    assert result.stdout.strip() == "2"


def test_sweep_starts_no_process_pool(tmp_path):
    # every cell runs in the sweep process, whatever --workers says
    config = {
        "space": {"family": "binomial", "lambda": 1.0, "eta": 2.0},
        "grid": {"a0_mod": [0.2, 0.5], "a1_fraction": [0.7]},
        "order": 16,
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    probe = (
        "import sys, wco.cli as cli; code = cli.main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
        "or m == 'concurrent.futures.process')); sys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, "sweep", "--config", str(cfg), "--workers", "2"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert result.stderr == ""
    sweep, modules = result.stdout.rstrip("\n").rsplit("\n", 1)
    assert modules == "[]"
    assert result.returncode == 0 and strict_json(sweep)["pass"] is True


@pytest.mark.parametrize(
    "space_args",
    [
        # khat(j) overflows at the ODE order 867; khat(j) 0.5^j stays below 4.1e148
        ["--family", "bergman", "--eta", "500"],
        # the Gaussian norm bound exp(842) is beyond the double range
        ["--family", "fock", "--b", "0.035"],
        # the kernel terms at w leave the double range: that check is skipped
        ["--family", "bergman", "--eta", "1e5"],
        ["--family", "fock", "--b", "0.0012"],
    ],
    ids=["bergman-eta-500", "fock-b-0.035", "bergman-eta-1e5", "fock-b-0.0012"],
)
def test_extreme_family_report_is_quiet_strict_json(space_args):
    a0 = "0.6" if "fock" in space_args else "0.3"
    a1 = "0.3" if "fock" in space_args else "0.2"
    result = subprocess.run(
        [sys.executable, "-m", "wco.cli", "check", *space_args,
         "--a0", a0, "--a1", a1, "--c", "1"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert result.stderr == ""
    assert "Traceback" not in result.stdout
    checks = {c["name"]: c for c in strict_json(result.stdout)["checks"]}
    # the section checks still fail on their fixed absolute tolerance
    assert result.returncode == 1
    assert checks["generating-ode"]["pass"] is True
    assert checks["generating-ode"]["residual"] <= 1e-14
    if space_args[-1] in ("1e5", "0.0012"):
        kernel = checks["kernel-identity"]
        assert kernel["pass"] is False and kernel["residual"] is None
        assert kernel["notes"] == "skipped: the kernel terms at w leave the double range"
    if "fock" in space_args:
        dominance = checks["norm-bound-dominance"]
        assert dominance["pass"] is True and dominance["residual"] == 0.0
        assert "log bound" in dominance["notes"]


#: the checks of a Bergman (eta > 1) report; a Fock report adds norm-bound-dominance
REPORT_CHECKS = {
    "hospitable-classification", "selfmap", "hermitian-deviation", "moment-0",
    "moment-1", "moment-2", "generating-ode", "kernel-identity",
    "quadrature-vs-series-norm",
}


@pytest.mark.parametrize(
    "space_args",
    [["--family", "bergman", "--eta", "1200"], ["--family", "fock", "--b", "0.01"]],
    ids=["bergman-eta-1200", "fock-b-0.01"],
)
def test_oracle_beyond_double_range_fails_its_check_only(space_args):
    result = subprocess.run(
        [sys.executable, "-m", "wco.cli", "check", *space_args, *PAIR],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert result.stderr == ""
    assert result.returncode == 1
    checks = {c["name"]: c for c in strict_json(result.stdout)["checks"]}
    fock = "fock" in space_args
    assert set(checks) == REPORT_CHECKS | ({"norm-bound-dominance"} if fock else set())
    # the ODE is checked coefficient by coefficient, scaled into range
    ode = checks["generating-ode"]
    assert ode["pass"] is True and ode["residual"] <= 1e-14
    kernel, quad = checks["kernel-identity"], checks["quadrature-vs-series-norm"]
    if fock:
        # |W K_w - W* K_w| entries near 1e160 would overflow when squared;
        # strict JSON has no inf, so a residual above 1e150 is finite
        assert kernel["pass"] is False and kernel["residual"] > 1e150
        # the tail mass is about exp(|w|^2 / b^2) = 10^564.6, noted by its log
        assert kernel["notes"] == (
            "truncated-kernel tail mass beyond the double range (log10 564.6)"
        )
        assert quad["pass"] is True
    else:
        # the degree-sized Gauss-Jacobi rule for (1 - s)^1198 has 4 nodes
        assert quad["pass"] is True and quad["residual"] <= 1e-12


def test_unbuildable_quadrature_rule_fails_its_check_only(monkeypatch, capsys):
    def unbuildable(n, alpha):
        raise QuadratureError(f"no rule: n={n}")

    monkeypatch.setattr(spaces, "_gauss_jacobi", unbuildable)
    code, out, err = run_cli(capsys, "check", "--family", "bergman", "--eta", "2", *PAIR)
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in strict_json(out)["checks"]}
    assert set(checks) == REPORT_CHECKS
    quad = checks.pop("quadrature-vs-series-norm")
    assert quad["pass"] is False and quad["residual"] is None
    # the degree-6 probe asks for the 4-node rule
    assert quad["notes"] == "quadrature did not run: no rule: n=4"
    assert all(c["pass"] for c in checks.values())


@pytest.mark.parametrize(
    "argv",
    [
        # a non-real c is never Hermitian, whatever the tolerance
        ["check", "--family", "hardy", "--a0", "0.3", "--a1", "0.2", "--c", "1+1e-9i"],
        ["report", "--family", "hardy", *PAIR],
        # the flat space of lam = 7/4 is never Binomial
        ["classify", "2", "2"],
    ],
    ids=["check", "report", "classify"],
)
def test_tolerances_cannot_be_overridden(capsys, argv):
    code, out, err = run_usage_error(capsys, *argv, "--tol", "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tol 1" in err


def test_default_order_is_64_whatever_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("WCO_DEFAULT_ORDER", "24")
    code, out, _ = run_cli(
        capsys, "check", "--family", "hardy", "--a0", "0.4", "--a1", "0.1", "--c", "1"
    )
    assert code == 0
    assert json.loads(out)["subject"]["order"] == 64


@pytest.fixture
def bergman_files(tmp_path):
    """The exact Bergman eta = 2 weights at order 100, and a copy with
    beta(90) raised by 0.1%, which only the coefficients past 64 see."""
    beta = spaces.bergman_weights(2.0, 100).beta.tolist()
    exact, off = tmp_path / "bergman.json", tmp_path / "bergman-off.json"
    exact.write_text(json.dumps({"order": 100, "beta": beta}))
    off.write_text(json.dumps({"order": 100, "beta": [*beta[:90], beta[90] * 1.001, *beta[91:]]}))
    return {"exact": exact, "beta90-off": off}


@pytest.mark.parametrize("order", [None, "64", "200"], ids=["file-order", "64", "200"])
@pytest.mark.parametrize("file", ["exact", "beta90-off"])
def test_one_order_across_subcommands(capsys, bergman_files, file, order):
    order_args = [] if order is None else ["--order", order]
    runs = {
        command: run_cli(
            capsys, command, "--beta-file", str(bergman_files[file]), *order_args, *extra
        )
        for command, extra in (
            ("classify", []), ("check", PAIR), ("report", PAIR), ("quad", ["--f", "z^3"]),
        )
    }
    if order == "200":
        for code, out, err in runs.values():
            assert code == 2 and out == ""
            assert err == "error: --order 200 exceeds the weight file's order 100\n"
        return
    for code, out, err in runs.values():
        assert "order" not in err
    variant = json.loads(runs["classify"][1])["variant"]
    assert json.loads(runs["check"][1])["subject"]["space"]["variant"] == variant
    # beta(90) is inside the run only at the file's own order
    hospitable = file == "exact" or order == "64"
    assert variant == ("Binomial" if hospitable else "NotHospitable")
    for command in ("classify", "check", "report"):
        assert runs[command][0] == (0 if hospitable else 1)
    if hospitable:
        assert runs["quad"][0] == 0


def test_check_fails_a_fock_file_off_the_family_by_1e8(capsys, tmp_path):
    beta = spaces.fock_weights(1.0, 64).beta.tolist()
    beta[60] *= 1.0 + 1e-8
    path = tmp_path / "fock.json"
    path.write_text(json.dumps({"order": 64, "beta": beta}))
    code, out, _ = run_cli(capsys, "classify", "--beta-file", str(path))
    assert code == 1 and json.loads(out)["reason"] == "coefficient-mismatch"
    code, out, _ = run_cli(capsys, "check", "--beta-file", str(path), *PAIR)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    classification = checks["hospitable-classification"]
    assert not classification["pass"]
    assert classification["residual"] == pytest.approx(2e-8, rel=1e-6)
    assert classification["tolerance"] == spaces.FIT_TOL


#: report oracle for each integral-norm domain `wco quad` names
QUAD_ORACLES = {
    "gaussian-plane": "Gaussian-plane quadrature",
    "disk": "disk quadrature",
    "circle": "circle quadrature",
}


@pytest.mark.parametrize(
    "space_args, fallback_check",
    [
        (["--family", "fock", "--b", "1.2"], None),
        (["--family", "hardy"], None),
        (["--family", "bergman", "--eta", "2"], None),
        (["--family", "bergman", "--eta", "0.5"], "derivative-norm-sandwich"),
        (["--family", "binomial", "--lam", "0.5", "--eta", "2"], None),
    ],
    ids=["fock", "hardy", "bergman-2", "bergman-0.5", "binomial-lam-0.5"],
)
def test_quad_and_report_share_the_integral_norm(capsys, space_args, fallback_check):
    code, out, _ = run_cli(capsys, "quad", *space_args, "--order", "24", "--f", "1+0.5*z-z^3")
    code_report, report_out, _ = run_cli(
        capsys, "check", *space_args, "--order", "24",
        "--a0", "0.4", "--a1", "0.1", "--c", "1",
    )
    assert code_report == 0
    checks = {c["name"]: c for c in json.loads(report_out)["checks"]}
    if fallback_check is None:
        assert code == 0
        oracle = QUAD_ORACLES[json.loads(out)["quadrature"]]
        assert checks["quadrature-vs-series-norm"]["oracle"] == oracle
    else:
        assert code == 2
        assert "quadrature-vs-series-norm" not in checks
        assert fallback_check in checks
    if "--eta" in space_args:
        eta = float(space_args[space_args.index("--eta") + 1])
        lam = float(space_args[space_args.index("--lam") + 1]) if "--lam" in space_args else 1.0
        assert Binomial(lam, eta).gamma == (eta + 1) / eta


@pytest.mark.parametrize("c, passes", [(1.0, True), (1e8, False)], ids=["hermitian", "c-1e8"])
@pytest.mark.parametrize(
    "cls, ws",
    [
        (Binomial(0.5, 2.0), spaces.family_weights(Binomial(0.5, 2.0), 64)),
        (Exponential(b_sq=1.44), spaces.fock_weights(1.2, 64)),
    ],
    ids=["binomial-lam-0.5", "fock"],
)
def test_sweep_row_is_the_section_verdict(cls, ws, c, passes):
    # at c = 1e8 the entries' rounding alone takes |M - M*| past the identity tolerance
    row = cli._sweep_cell(0, cls, ws, 0.3, 0.7, 0.4, c)
    a0 = 0.3 * np.exp(0.7j)
    a1 = symbols.a1_from_fraction(symbols.selfmap_interval(a0, cls.lam, 1.0), 0.4)
    section = operators.build_matrix(symbols.synthesize(cls, a0, a1, c, 64), ws)
    checks = verify.section_checks(section)
    assert [check.name for check in checks] == ["hermitian-deviation", "moment-0", "moment-1", "moment-2"]
    assert [row[key] for key in ("deviation", "m0", "m1", "m2")] == [check.residual for check in checks]
    assert row["pass"] is checks[0].passed is passes


@pytest.mark.parametrize("skew", [1.0, 1.001], ids=["exact", "skewed"])
@pytest.mark.parametrize(
    "space_args",
    [["--family", "fock", "--b", "1.2"], ["--family", "hardy"], ["--family", "bergman", "--eta", "2"]],
    ids=["fock", "hardy", "bergman-2"],
)
def test_quad_verdict_is_the_quadrature_check(capsys, monkeypatch, space_args, skew):
    integral_norm = spaces.integral_norm

    def skewed(cls, f):
        domain, q = integral_norm(cls, f)
        return domain, q * skew

    monkeypatch.setattr(spaces, "integral_norm", skewed)
    code, out, _ = run_cli(capsys, "quad", *space_args, "--order", "24", "--f", "1+0.5*z-z^3")
    payload = strict_json(out)
    check = verify.quadrature_check(payload["quadrature"], payload["series_norm"], payload["quadrature_norm"])
    assert payload["relative_gap"] == check.residual
    assert check.passed is (skew == 1.0)
    assert code == (0 if check.passed else 1)


@pytest.mark.parametrize("weight", [1e-200, 1e200])
@pytest.mark.parametrize(
    "argv",
    [["classify"], ["check", *PAIR], ["quad", "--f", "z^3"]],
    ids=["classify", "check", "quad"],
)
def test_weight_whose_reciprocal_square_leaves_the_range_is_usage_error(
    capsys, tmp_path, argv, weight
):
    # 1/beta(3)^2 is inf (1e-200) or 0 (1e200): never a verdict, never a warning
    beta = [1.0] * 17
    beta[3] = weight
    path = tmp_path / "hardy.json"
    path.write_text(json.dumps({"order": 16, "beta": beta}))
    code, out, err = run_cli(capsys, argv[0], "--beta-file", str(path), *argv[1:])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: 1/beta(3)^2 = ") and "floating-point range" in err


@pytest.mark.parametrize("b, weight", [(1e-30, 1e150), (1e30, 1e-150)], ids=["0", "inf"])
def test_ratio_beyond_the_double_range_is_a_mismatch(capsys, tmp_path, b, weight):
    # a Fock head with beta(5) near 1e-150 (or 1e150) and beta(6) = 1e150 (or
    # 1e-150): every 1/beta^2 is a normal double, (beta(5)/beta(6))^2 is not
    beta = [*spaces.fock_weights(b, 5).beta.tolist(), weight]
    cls = spaces.classify_weights(spaces.WeightSequence(np.array(beta)))
    assert isinstance(cls, spaces.NotHospitable) and cls.reason == "coefficient-mismatch"
    assert cls.mismatch.index == 6 and cls.mismatch.gap == 1.0
    path = tmp_path / "fock.json"
    path.write_text(json.dumps({"order": 6, "beta": beta}))
    code, out, err = run_cli(capsys, "classify", "--beta-file", str(path))
    assert code == 1 and err == ""
    payload = strict_json(out)
    assert payload["reason"] == "coefficient-mismatch" and payload["mismatch"]["index"] == 6


def test_bergman_eta_1e5_is_in_normal_form_and_gets_the_disk_quadrature(capsys):
    # the secant through t_0 and t_63 puts lam within 1e-12 of 1; the first
    # slope alone read lam = 1 - 3.8e-11
    cls = spaces.classify_weights(spaces.bergman_weights(1e5, 64))
    assert abs(cls.lam - 1.0) < 1e-12
    code, out, _ = run_cli(capsys, "check", "--family", "bergman", "--eta", "1e5", *PAIR)
    checks = {c["name"]: c for c in strict_json(out)["checks"]}
    quad = checks["quadrature-vs-series-norm"]
    assert quad["oracle"] == "disk quadrature" and quad["pass"] is True
