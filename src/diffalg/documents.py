"""Line-oriented key/value documents for certificates and witnesses.

A document is a sequence of ``key: value`` lines.  Nested sections use
dotted keys (``certificate.m: 0``); cofactors are keyed by derivative
index (``cofactor.2: ...``).  Polynomial payloads are canonical surface
text, and a ``vars`` line records the declared indeterminates so a
document is self-contained.  Serialization is deterministic: fixed key
order, cofactors sorted by index.
"""

from __future__ import annotations

from .errors import DocumentError
from .polynomials import Context, DiffPoly
from .reduction import ReductionCertificate, ReductionMode
from .syntax import format_poly, parse_poly
from .witness import ChevalleyWitness, WitnessCase


def _emit(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{key}: {value}\n" for key, value in pairs)


def _certificate_pairs(cert: ReductionCertificate, prefix: str = "") -> list[tuple[str, str]]:
    pairs = [
        (f"{prefix}mode", cert.mode.value),
        (f"{prefix}m", str(cert.m)),
        (f"{prefix}n", str(cert.n)),
        (f"{prefix}F", format_poly(cert.dividend)),
        (f"{prefix}A", format_poly(cert.divisor)),
        (f"{prefix}G", format_poly(cert.remainder)),
    ]
    for k in sorted(cert.cofactors):
        pairs.append((f"{prefix}cofactor.{k}", format_poly(cert.cofactors[k])))
    return pairs


def serialize_certificate(cert: ReductionCertificate) -> str:
    pairs = [
        ("vars", ",".join(cert.dividend.ctx.names)),
        ("main", cert.main),
    ]
    return _emit(pairs + _certificate_pairs(cert))


def serialize_witness(witness: ChevalleyWitness) -> str:
    pairs = [
        ("vars", ",".join(witness.a.ctx.names)),
        ("main", witness.main),
        ("case", witness.case.value),
        ("a", format_poly(witness.a)),
    ]
    if witness.case is WitnessCase.ALGEBRAIC:
        pairs += [
            ("a1", format_poly(witness.a1)),
            ("a2", format_poly(witness.a2)),
            ("a3", format_poly(witness.a3)),
            ("B1", format_poly(witness.b1)),
            ("n", str(witness.n)),
        ]
        pairs += _certificate_pairs(witness.weak_certificate, prefix="certificate.")
    return _emit(pairs)


def _parse_lines(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise DocumentError(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        if key in fields:
            raise DocumentError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    if not fields:
        raise DocumentError("empty document")
    return fields


def _pop(fields: dict[str, str], key: str) -> str:
    try:
        return fields.pop(key)
    except KeyError:
        raise DocumentError(f"missing key {key!r}") from None


def _nat(key: str, text: str) -> int:
    """The non-negative integer ``text`` names, in canonical decimal only,
    so that no two texts name one value (``01``, ``+1``, ``1_0`` do not)."""
    try:
        value = int(text)
    except ValueError:  # not an integer, or more digits than int() converts
        value = -1
    if value < 0 or str(value) != text:
        raise DocumentError(f"key {key!r}: expected a non-negative integer, got {text!r}")
    return value


def _pop_context(fields: dict[str, str]) -> Context:
    names = [name.strip() for name in _pop(fields, "vars").split(",")]
    try:
        return Context(*names)
    except ValueError as exc:
        raise DocumentError(f"key 'vars': {exc}") from None


def _build_certificate(
    fields: dict[str, str], ctx: Context, main: str, prefix: str = ""
) -> ReductionCertificate:
    mode_text = _pop(fields, f"{prefix}mode")
    try:
        mode = ReductionMode(mode_text)
    except ValueError:
        raise DocumentError(f"unknown mode {mode_text!r}") from None
    m = _nat(f"{prefix}m", _pop(fields, f"{prefix}m"))
    n = _nat(f"{prefix}n", _pop(fields, f"{prefix}n"))
    dividend = parse_poly(_pop(fields, f"{prefix}F"), ctx)
    divisor = parse_poly(_pop(fields, f"{prefix}A"), ctx)
    remainder = parse_poly(_pop(fields, f"{prefix}G"), ctx)
    cofactors: dict[int, DiffPoly] = {}
    marker = f"{prefix}cofactor."
    for key in sorted(k for k in fields if k.startswith(marker)):
        index = _nat(key, key[len(marker):])
        cofactor = parse_poly(fields.pop(key), ctx)
        # Only nonzero cofactors are written; a zero one at a huge index
        # would still cost delta^index of the divisor to verify.
        if cofactor.is_zero:
            raise DocumentError(f"key {key!r}: zero cofactor")
        cofactors[index] = cofactor
    return ReductionCertificate(
        dividend=dividend,
        divisor=divisor,
        main=main,
        mode=mode,
        m=m,
        n=n,
        remainder=remainder,
        cofactors=cofactors,
    )


def parse_certificate(text: str) -> ReductionCertificate:
    fields = _parse_lines(text)
    ctx = _pop_context(fields)
    main = _pop(fields, "main")
    ctx.index(main)
    cert = _build_certificate(fields, ctx, main)
    if fields:
        raise DocumentError(f"unexpected keys: {', '.join(sorted(fields))}")
    return cert


def parse_witness(text: str) -> ChevalleyWitness:
    fields = _parse_lines(text)
    ctx = _pop_context(fields)
    main = _pop(fields, "main")
    ctx.index(main)
    case_text = _pop(fields, "case")
    try:
        case = WitnessCase(case_text)
    except ValueError:
        raise DocumentError(f"unknown case {case_text!r}") from None
    a = parse_poly(_pop(fields, "a"), ctx)
    if case is WitnessCase.TRANSCENDENTAL:
        witness = ChevalleyWitness(case=case, main=main, a=a)
    else:
        a1 = parse_poly(_pop(fields, "a1"), ctx)
        a2 = parse_poly(_pop(fields, "a2"), ctx)
        a3 = parse_poly(_pop(fields, "a3"), ctx)
        b1 = parse_poly(_pop(fields, "B1"), ctx)
        n = _nat("n", _pop(fields, "n"))
        cert = _build_certificate(fields, ctx, main, prefix="certificate.")
        witness = ChevalleyWitness(
            case=case, main=main, a=a, a1=a1, a2=a2, a3=a3, b1=b1, n=n,
            weak_certificate=cert,
        )
    if fields:
        raise DocumentError(f"unexpected keys: {', '.join(sorted(fields))}")
    return witness
