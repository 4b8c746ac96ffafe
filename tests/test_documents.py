"""Certificate and witness documents: round trips and rejection."""

from __future__ import annotations

import random

import pytest

from diffalg import (
    Context,
    DiffPoly,
    DocumentError,
    ReductionMode,
    UnknownIndeterminate,
    chevalley_witness,
    parse_certificate,
    parse_poly,
    parse_witness,
    ritt_reduce,
    serialize_certificate,
    serialize_witness,
    verify_certificate,
)

import _corpus

CTX = Context("u", "y")


def P(text: str) -> DiffPoly:
    return parse_poly(text, CTX)


class TestCertificateDocuments:
    def test_round_trip_fixture(self):
        cert = ritt_reduce(P("y''"), P("(y')^2 - 4*y"), "y", ReductionMode.WEAK)
        text = serialize_certificate(cert)
        assert parse_certificate(text) == cert

    def test_round_trip_random(self):
        rng = random.Random(311)
        for _ in range(25):
            F = _corpus.random_poly(rng, CTX)
            A = _corpus.random_proper(rng, CTX, "y")
            for mode in ReductionMode:
                cert = ritt_reduce(F, A, "y", mode)
                assert parse_certificate(serialize_certificate(cert)) == cert

    def test_serialization_is_deterministic(self):
        cert = ritt_reduce(P("u*(y'')^2"), P("y'*y - 1"), "y")
        assert serialize_certificate(cert) == serialize_certificate(cert)

    def test_parsed_document_verifies(self):
        cert = ritt_reduce(P("y''' + y"), P("(y')^2 - 4*y"), "y")
        reparsed = parse_certificate(serialize_certificate(cert))
        assert verify_certificate(reparsed).valid

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lines: lines[1:],  # drop main
            lambda lines: lines + ["main: y"],  # duplicate
            lambda lines: lines + ["extra: 1"],  # unknown key
            lambda lines: ["mode weak"] + lines[1:],  # bad line shape
            lambda lines: [l.replace("mode: weak", "mode: strong") for l in lines],
            lambda lines: [l.replace("m: 0", "m: -1") for l in lines],
            lambda lines: [l.replace("m: 0", "m: x") for l in lines],
            lambda lines: [l.replace("cofactor.1", "cofactor.one") for l in lines],
            lambda lines: [],  # empty
            # Index texts that int() reads but that are not the canonical
            # decimal: each would alias (and overwrite) another index.
            lambda lines: lines + ["cofactor.01: u^7 + 12345"],
            lambda lines: lines + ["cofactor.+1: u"],
            lambda lines: lines + ["cofactor.1_0: u"],
            lambda lines: lines + ["cofactor.\u0660\u0661: u"],
            lambda lines: [l.replace("cofactor.1", "cofactor.01") for l in lines],
            lambda lines: [l.replace("cofactor.1", "cofactor.-0") for l in lines],
            # The same rule for m and n.
            lambda lines: [l.replace("m: 0", "m: +0") for l in lines],
            lambda lines: [l.replace("m: 0", "m: 0_0") for l in lines],
            lambda lines: [l.replace("m: 0", "m: \u0660") for l in lines],
            lambda lines: [l.replace("m: 0", "m:  00") for l in lines],
            lambda lines: [l.replace("n: 1", "n: 01") for l in lines],
            # Zero cofactors are never written.
            lambda lines: [l.replace("cofactor.1: 1", "cofactor.1: 0") for l in lines],
            lambda lines: lines + ["cofactor.100000000: 0"],
            lambda lines: [l.replace("vars: u,y", "vars: u,u") for l in lines],
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        cert = ritt_reduce(P("y''"), P("(y')^2 - 4*y"), "y", ReductionMode.WEAK)
        lines = serialize_certificate(cert).splitlines()
        broken = "\n".join(mutate(lines))
        with pytest.raises(DocumentError):
            parse_certificate(broken)

    def test_undeclared_main_rejected(self):
        cert = ritt_reduce(P("y''"), P("(y')^2 - 4*y"), "y", ReductionMode.WEAK)
        text = serialize_certificate(cert).replace("main: y", "main: w")
        with pytest.raises(UnknownIndeterminate):
            parse_certificate(text)


class TestWitnessDocuments:
    def test_algebraic_round_trip(self):
        w = chevalley_witness(P("y'"), P("u*y' - 1"), main="y")
        assert parse_witness(serialize_witness(w)) == w

    def test_transcendental_round_trip(self):
        w = chevalley_witness(P("u*y''"), main="y")
        text = serialize_witness(w)
        assert "a1" not in text and "certificate" not in text
        assert parse_witness(text) == w

    def test_alias_cofactor_index_rejected(self):
        w = chevalley_witness(P("y'"), P("u*y' - 1"), main="y")
        text = serialize_witness(w)
        assert "certificate.cofactor.0: 1" in text
        for alias in ("00", "+0", "\u0660"):
            with pytest.raises(DocumentError):
                parse_witness(text + f"certificate.cofactor.{alias}: u^7\n")

    @pytest.mark.parametrize(
        "line, alias",
        [
            ("n: 1", "n: +1"),
            ("n: 1", "n: 01"),
            ("certificate.m: 0", "certificate.m: 0_0"),
            ("certificate.n: 1", "certificate.n: \u0661"),
            ("certificate.cofactor.0: 1", "certificate.cofactor.0: 0"),
            ("certificate.cofactor.0: 1", "certificate.cofactor.100000000: 0"),
        ],
    )
    def test_alias_integer_or_zero_cofactor_rejected(self, line, alias):
        w = chevalley_witness(P("y'"), P("u*y' - 1"), main="y")
        text = serialize_witness(w)
        assert f"\n{line}\n" in text
        with pytest.raises(DocumentError):
            parse_witness(text.replace(f"\n{line}\n", f"\n{alias}\n"))

    def test_unknown_case_rejected(self):
        w = chevalley_witness(P("u*y''"), main="y")
        text = serialize_witness(w).replace("transcendental", "mystery")
        with pytest.raises(DocumentError):
            parse_witness(text)

    @pytest.mark.parametrize(
        "line, changed",
        [
            # B1 and n restate the weak certificate's G and n.
            ("B1: 1", "B1: 7*1"),
            ("n: 1", "n: 5"),
            ("n: 1", "n: 1\nextra: 1"),
        ],
    )
    def test_disagreeing_or_extra_line_rejected(self, line, changed):
        w = chevalley_witness(P("y'"), P("u*y' - 1"), main="y")
        text = serialize_witness(w)
        assert f"\n{line}\n" in text
        with pytest.raises(DocumentError):
            parse_witness(text.replace(f"\n{line}\n", f"\n{changed}\n"))
