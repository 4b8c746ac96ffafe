"""Command-line behaviour: outputs, exit codes, pipe closure."""

from __future__ import annotations

import random
import sys
import time

import pytest

from diffalg.cli import run

import _corpus
from diffalg import (
    Context,
    DerivVar,
    as_leader_poly,
    det_cofactor,
    format_poly,
    parse_poly,
    separant,
    sylvester_matrix,
)

CTX = Context("u", "y")

# str() refuses an int of more digits than this; 0 means no limit.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

WITNESS_FIXTURE = [
    "witness", "--vars", "u,y", "--target", "y'", "--minimal", "u*y' - 1",
    "--main", "y",
]

EXPECTED_WITNESS_DOC = """\
vars: u,y
main: y
case: algebraic
a: u^2
a1: u
a2: u
a3: 1
B1: 1
n: 1
certificate.mode: weak
certificate.m: 0
certificate.n: 1
certificate.F: y'
certificate.A: u*y' - 1
certificate.G: 1
certificate.cofactor.0: 1
"""


def assert_one_parse_error(argv: list[str], stdin_text: str) -> None:
    code, out, err = run(argv, stdin_text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: parse-error:")
    assert err.count("\n") == 1


class TestReduceVerify:
    def test_reduce_emits_fixture_certificate(self):
        code, out, err = run([
            "reduce", "--vars", "u,y", "--dividend", "y''",
            "--divisor", "(y')^2 - 4*y", "--main", "y", "--weak",
        ])
        assert (code, err) == (0, "")
        assert "G: 4*y'" in out
        assert "m: 0" in out and "n: 1" in out

    def test_pipe_closure(self):
        code, doc, _ = run([
            "reduce", "--vars", "u,y", "--dividend", "y'' * y + u",
            "--divisor", "(y')^2 - 4*y", "--main", "y",
        ])
        assert code == 0
        code, out, err = run(["verify"], stdin_text=doc)
        assert (code, out, err) == (0, "valid\n", "")

    def test_verify_rejects_tampered_document(self):
        _, doc, _ = run([
            "reduce", "--vars", "u,y", "--dividend", "y''",
            "--divisor", "(y')^2 - 4*y", "--main", "y", "--weak",
        ])
        tampered = doc.replace("G: 4*y'", "G: 4*y' + 1")
        code, out, _ = run(["verify"], stdin_text=tampered)
        assert code == 0
        assert out == "invalid: identity\n"

    def test_verify_rejects_a_divisor_free_of_main(self):
        _, doc, _ = run(["reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u"])
        tampered = doc.replace("A: y' - u", "A: u + 1")
        assert tampered != doc
        assert run(["verify"], tampered) == (0, "invalid: divisor\n", "")

    def test_verify_rejects_aliased_cofactor_key(self):
        # cofactor.01 would name index 1 again and replace cofactor.1.
        _, doc, _ = run([
            "reduce", "--vars", "u,y", "--dividend", "y''",
            "--divisor", "(y')^2 - 4*y", "--main", "y", "--weak",
        ])
        code, out, err = run(["verify"], stdin_text=doc + "cofactor.01: u^7 + 12345\n")
        assert (code, out) == (1, "")
        assert err.startswith("error: document-error:")
        assert err.count("\n") == 1

    def test_random_pipes(self):
        rng = random.Random(401)
        for _ in range(10):
            F = _corpus.random_poly(rng, CTX)
            A = _corpus.random_proper(rng, CTX, "y")
            args = [
                "reduce", "--vars", "u,y", f"--dividend={format_poly(F)}",
                f"--divisor={format_poly(A)}", "--main", "y",
            ]
            code, doc, _ = run(args)
            if code == 2:
                continue  # divisor happened to be free of y
            assert code == 0
            code, out, _ = run(["verify"], stdin_text=doc)
            assert (code, out) == (0, "valid\n")


class TestWitnessCommand:
    def test_fixture_document(self):
        code, out, err = run(WITNESS_FIXTURE)
        assert (code, err) == (0, "")
        assert out == EXPECTED_WITNESS_DOC

    def test_byte_identical_across_runs(self):
        first = run(WITNESS_FIXTURE)
        second = run(WITNESS_FIXTURE)
        assert first == second

    def test_transcendental(self):
        code, out, _ = run([
            "witness", "--vars", "u,y", "--target", "u*y''", "--main", "y",
        ])
        assert code == 0
        assert "case: transcendental" in out
        assert "a: u" in out


class TestSimpleCommands:
    def test_rank(self):
        code, out, _ = run(["rank", "--vars", "u,y", "--poly", "(y')^2 - 4*y"])
        assert (code, out) == (0, "proper order=1 degree=2 leader=y'\n")
        code, out, _ = run(["rank", "--vars", "u,y", "--poly", "u + 1"])
        assert (code, out) == (0, "constant\n")

    def test_initial_separant(self):
        code, out, _ = run(["initial", "--vars", "u,y", "--poly", "u*(y')^2 + y"])
        assert (code, out) == (0, "u\n")
        code, out, _ = run(["separant", "--vars", "u,y", "--poly", "(y')^2 - 4*y"])
        assert (code, out) == (0, "2*y'\n")

    def test_discriminant(self):
        code, out, _ = run(["discriminant", "--vars", "u,y", "--poly", "(y')^2 - 4*y"])
        assert (code, out) == (0, "-16*y\n")

    def test_discriminant_degree_six(self):
        text = " + ".join(f"(u+{i}*y+1)*(y')^{i}" for i in range(7))
        code, out, err = run(["discriminant", "--vars", "u,y", "--main", "y", "--poly", text])
        poly = parse_poly(text, CTX)
        leader = DerivVar("y", 1)
        matrix = sylvester_matrix(
            as_leader_poly(poly, leader), as_leader_poly(separant(poly, "y"), leader)
        )
        assert (code, err) == (0, "")
        assert out == format_poly(det_cofactor(matrix, CTX)) + "\n"

    def test_resultant(self):
        code, out, _ = run([
            "resultant", "--vars", "u,y", "--first", "(y')^2 - 4*y",
            "--second", "y'", "--leader", "y'",
        ])
        assert (code, out) == (0, "-4*y\n")

    def test_membership(self):
        code, out, _ = run([
            "membership", "--vars", "u,y", "--dividend", "2*y'*y'' - 4*y'",
            "--divisor", "(y')^2 - 4*y",
        ])
        assert code == 0
        assert out.startswith("result: reduces-to-zero\n")
        code, out, _ = run([
            "membership", "--vars", "u,y", "--dividend", "y'",
            "--divisor", "(y')^2 - 4*y",
        ])
        assert code == 0
        assert out.startswith("result: remainder\n")

    def test_degree_bound(self):
        code, out, _ = run(["degree-bound", "--vars", "u,y", "--poly", "y^3 - u"])
        assert (code, out) == (0, "3\n")
        code, out, _ = run(["degree-bound", "--vars", "u,y", "--poly", "y' - y"])
        assert (code, out) == (0, "unbounded\n")

    def test_parse_and_format(self):
        code, out, _ = run(["parse", "--vars", "u,y", "y^(3) + 1/2*u"])
        assert (code, out) == (0, "y''' + 1/2*u\n")
        code, out, _ = run(["format", "--vars", "u,y", "- 4*y + (y')^2"])
        assert (code, out) == (0, "(y')^2 - 4*y\n")
        code, out, _ = run(["format", "--vars", "u,y", "٣*y"])
        assert (code, out) == (0, "3*y\n")

    def test_format_follows_declaration_order(self):
        expr = "u*y + y^2 + u^2 + u' + y'"
        code, out, _ = run(["format", "--vars", "y,u", expr])
        assert (code, out) == (0, "u^2 + y*u + y^2 + u' + y'\n")
        code, out, _ = run(["format", "--vars", "u,y", expr])
        assert (code, out) == (0, "y^2 + u*y + u^2 + y' + u'\n")

    def test_main_defaults_to_last_declared(self):
        explicit = run(["rank", "--vars", "u,y", "--main", "y", "--poly", "y''"])
        defaulted = run(["rank", "--vars", "u,y", "--poly", "y''"])
        assert explicit == defaulted


class TestExitCodes:
    def test_syntax_error_is_exit_one(self):
        code, out, err = run(["parse", "--vars", "u,y", "y +"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: parse-error:")

    def test_superscript_digit_is_parse_error(self):
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u",
        ])[1]
        tampered = certificate.replace("F: y''", "F: 1²")
        assert tampered != certificate
        for argv, stdin_text in [
            (["parse", "--vars", "u,y", "²"], ""),
            (["parse", "--vars", "y", "y²"], ""),
            (["rank", "--vars", "u,y", "--poly=2²"], ""),
            (["verify"], tampered),
        ]:
            assert_one_parse_error(argv, stdin_text)

    def test_deep_nesting_is_parse_error(self):
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u",
        ])[1]
        deep = certificate.replace("F: y''", "F: " + "(" * 300 + "y''" + ")" * 300)
        assert deep != certificate
        for argv, stdin_text in [
            (["parse", "--vars", "u,y", "(" * 250 + "y" + ")" * 250], ""),
            (["verify"], deep),
        ]:
            assert_one_parse_error(argv, stdin_text)

    def test_number_past_int_digit_limit_is_out_of_range(self):
        # int() refuses more than 4300 digits by default.
        digits = "9" * 5000
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u",
        ])[1]
        for argv, stdin_text in [
            (["parse", "--vars", "y", f"y^{digits}"], ""),
            (["parse", "--vars", "y", digits], ""),
            (["parse", "--vars", "y", f"y^({digits})"], ""),
            (["verify"], certificate.replace("F: y''", f"F: y^{digits}")),
        ]:
            code, out, err = run(argv, stdin_text)
            assert (code, out) == (1, "")
            assert err.startswith("error: exponent-out-of-range:")
            assert err.count("\n") == 1

    @pytest.mark.skipif(INT_DIGITS == 0, reason="int-to-str conversion has no limit")
    def test_coefficient_past_the_digit_limit_is_out_of_range(self):
        for argv in [
            ["parse", "--vars", "y", "2^20000"],
            ["parse", "--vars", "y", "3^9999*y"],
            ["parse", "--vars", "y", f"10^{INT_DIGITS}"],
            ["reduce", "--vars", "u,y", "--dividend", "2^20000*y''", "--divisor", "y' - u"],
        ]:
            code, out, err = run(argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: exponent-out-of-range:")
            assert err.count("\n") == 1

    @pytest.mark.skipif(INT_DIGITS == 0, reason="int-to-str conversion has no limit")
    def test_coefficient_at_the_digit_limit_prints(self):
        code, out, err = run(["parse", "--vars", "y", f"10^{INT_DIGITS - 1}"])
        assert (code, out, err) == (0, "1" + "0" * (INT_DIGITS - 1) + "\n", "")

    def test_computed_exponent_past_a_word_is_out_of_range(self):
        # Each exponent typed is 2^63 - 1; each computed one would be 2^63,
        # which a printed certificate could not state for verify to read.
        top = "y^9223372036854775807"
        for argv in [
            ["parse", "--vars", "y", f"{top}*y"],
            ["parse", "--vars", "y", f"({top})^2"],
            ["parse", "--vars", "y", f"{top}*{top}*y^2"],
            ["parse", "--vars", "u,y", f"{top}*{top}*y^2".replace("y", "u")],
            ["reduce", "--vars", "y", "--dividend", f"{top}*y", "--divisor", "y'"],
        ]:
            code, out, err = run(argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: exponent-out-of-range: ")
            assert err.count("\n") == 1

    def test_derivative_order_past_the_last_field_is_out_of_range(self):
        # A key would need 2^63 or 10^8 exponent fields; the bound is 4096.
        start = time.perf_counter()
        for order in ("9223372036854775807", "100000000"):
            for argv in [
                ["parse", "--vars", "y", f"y^({order})"],
                ["resultant", "--vars", "u,y", "--first", "y", "--second", "u",
                 "--leader", f"y^({order})"],
            ]:
                code, out, err = run(argv)
                assert (code, out) == (1, "")
                assert err.startswith("error: exponent-out-of-range: ")
                assert err.count("\n") == 1
        assert time.perf_counter() - start < 1

    def test_error_line_is_bounded(self):
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u",
        ])[1]
        for argv, stdin_text in [
            (["verify"], certificate + "cofactor." + "1" * 5000 + ": u\n"),
            (["parse", "--vars", "y", "y^" + "9" * 5000], ""),
        ]:
            code, out, err = run(argv, stdin_text)
            assert (code, out) == (1, "")
            assert err.endswith("\n") and err.count("\n") == 1
            assert len(err) <= 300

    def test_verify_rejects_zero_cofactor_quickly(self):
        # Verifying would expand delta^(10^8) of the divisor.
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u",
        ])[1]
        start = time.perf_counter()
        code, out, err = run(["verify"], certificate + "cofactor.100000000: 0\n")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: document-error:") and err.count("\n") == 1

    def test_verify_rejects_huge_cofactor_index_quickly(self):
        # Verifying would expand delta^(10^8) of the divisor; the index is
        # above the dividend's order, which no reduction produces.
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u",
        ])[1]
        start = time.perf_counter()
        result = run(["verify"], certificate + "cofactor.100000000: 1\n")
        assert time.perf_counter() - start < 1
        assert result == (0, "invalid: shape\n", "")

    def test_verify_bounds_a_huge_initial_power(self):
        # m*deg(I) + n*deg(S) + deg(F) exceeds every right-hand degree, so the
        # identity fails before (u + 1)^(10^8) is expanded.
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''",
            "--divisor", "(u+1)*(y')^2 - 4*y",
        ])[1]
        assert "\nm: 1\n" in certificate
        start = time.perf_counter()
        result = run(["verify"], certificate.replace("\nm: 1\n", "\nm: 100000000\n"))
        assert time.perf_counter() - start < 1
        assert result == (0, "invalid: identity\n", "")

    def test_verify_of_a_zero_dividend_expands_no_power(self):
        # I^m * S^n * 0 = 0 = G for every m, so no power is expanded.
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "0",
            "--divisor", "(u+1)*(y')^2 - 4*y",
        ])[1]
        assert "\nm: 0\n" in certificate and "\nG: 0\n" in certificate
        start = time.perf_counter()
        result = run(["verify"], certificate.replace("\nm: 0\n", "\nm: 100000000\n"))
        assert time.perf_counter() - start < 1
        assert result == (0, "valid\n", "")

    def test_leading_zeros_are_not_significant(self):
        zeros = "0" * 5000
        start = time.perf_counter()
        for expr, printed in [
            (f"y^{zeros}", "1"),
            (f"y^{zeros}7", "y^7"),
            (f"y^({zeros}3)", "y'''"),
            (f"{zeros}12*y", "12*y"),
            ("y^" + "٠" * 5000 + "7", "y^7"),
        ]:
            assert run(["parse", "--vars", "y", expr]) == (0, printed + "\n", "")
        for expr in (f"y^{zeros}{2**63}", f"y^{zeros}" + "1" * 20):
            code, out, err = run(["parse", "--vars", "y", expr])
            assert (code, out) == (1, "")
            assert err.startswith("error: exponent-out-of-range:") and err.count("\n") == 1
        assert time.perf_counter() - start < 1

    def test_verify_rejects_aliased_integers(self):
        certificate = run([
            "reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u",
            "--weak",
        ])[1]
        assert "\nm: 0\n" in certificate
        for alias in ("+0", "0_0", "\u0660", " 00"):
            code, out, err = run(["verify"], certificate.replace("\nm: 0\n", f"\nm: {alias}\n"))
            assert (code, out) == (1, "")
            assert err.startswith("error: document-error:") and err.count("\n") == 1

    def test_leader_must_be_one_derivative_variable(self):
        command = ["resultant", "--vars", "u,y", "--first", "y", "--second", "u"]
        for leader in ["y^2", "2*y", "u*y", "y + u", "0", "1"]:
            assert_one_parse_error(command + ["--leader", leader], "")
        # The "=" form, or argparse would read "-y" as a flag.
        assert_one_parse_error(command + ["--leader=-y"], "")
        assert run(command + ["--leader", "1*y"]) == (0, "u\n", "")

    def test_undeclared_indeterminate_is_exit_one(self):
        code, _, err = run(["parse", "--vars", "u,y", "w"])
        assert code == 1
        assert err.startswith("error: unknown-indeterminate:")

    def test_missing_flag_is_exit_one(self):
        code, _, err = run(["reduce", "--vars", "u,y", "--dividend", "y"])
        assert code == 1
        assert err.startswith("error: usage:")

    def test_bad_declaration_is_usage_error(self):
        for names in ("u,u", "U"):
            code, out, err = run(["parse", "--vars", names, "1"])
            assert (code, out) == (1, "")
            assert err.startswith("error: usage:") and err.count("\n") == 1

    def test_constant_divisor_is_exit_two(self):
        code, out, err = run([
            "reduce", "--vars", "u,y", "--dividend", "y", "--divisor", "u + 1",
            "--main", "y",
        ])
        assert code == 2
        assert out == ""
        assert err.startswith("error: constant-divisor:")

    def test_zero_target_is_exit_two(self):
        code, _, err = run(["witness", "--vars", "u,y", "--target", "0"])
        assert code == 2
        assert err.startswith("error: zero-target:")

    def test_vanishing_resultant_is_exit_two(self):
        code, _, err = run([
            "witness", "--vars", "u,y", "--target", "y' - u",
            "--minimal", "(y')^2 - u^2",
        ])
        assert code == 2
        assert err.startswith("error: vanishing-resultant:")

    def test_reduces_into_ideal_is_exit_two(self):
        code, _, err = run([
            "witness", "--vars", "u,y", "--target", "u*y' - 1",
            "--minimal", "u*y' - 1",
        ])
        assert code == 2
        assert err.startswith("error: reduces-into-ideal:")

    def test_malformed_document_is_exit_one(self):
        code, _, err = run(["verify"], stdin_text="not a document")
        assert code == 1
        assert err.startswith("error: document-error:")

    def test_runs_share_no_state(self):
        reduce = ["reduce", "--vars", "u,y", "--dividend", "y''", "--divisor", "y' - u"]
        code, out, _ = run(reduce + ["--weak"])
        assert code == 0 and "mode: weak\n" in out
        code, out, _ = run(reduce)
        assert code == 0 and "mode: full\n" in out
        code, _, err = run(["reduce", "--vars", "u,y", "--dividend", "y"])
        assert code == 1 and err.startswith("error: usage:")
        code, out, err = run(["parse", "--vars", "u,y", "y'"])
        assert (code, out, err) == (0, "y'\n", "")

    def test_help_is_exit_zero(self):
        code, out, _ = run(["--help"])
        assert code == 0
        assert "reduce" in out
