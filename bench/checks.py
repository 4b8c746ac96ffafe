"""Correctness gate, applied outside the timed region to every item.

``check_item`` returns None for a correct answer and a short reason
otherwise.  A reduce -> verify pipe is correct when both calls exit 0,
``verify`` prints ``valid`` and the certificate restates the inputs and
mode.  A witness is correct when the document parses, a == a1*a2*a3
exactly, a, a1, a2 and a3 are nonzero and free of the main indeterminate,
the weak certificate verifies and restates the inputs, a1 is the selected
coefficient of the initial, and a2 and a3 are the selected coefficients of
the discriminant and resultant recomputed by cofactor expansion of the
Sylvester matrix (the independent oracle).  Exit 2 with
``reduces-into-ideal`` or ``vanishing-resultant`` is also correct when the
oracle confirms it.
"""

from __future__ import annotations

from diffalg import (
    Context,
    DiffAlgError,
    ReductionMode,
    as_leader_poly,
    det_cofactor,
    format_poly,
    initial,
    parse_poly,
    parse_witness,
    rank_profile,
    ritt_reduce,
    select_coefficient,
    separant,
    sylvester_matrix,
    verify_certificate,
)

CORRECT_REFUSALS = ("reduces-into-ideal", "vanishing-resultant")


def _flag(argv: list[str], name: str) -> str:
    prefix = f"--{name}="
    return next(arg[len(prefix):] for arg in argv if arg.startswith(prefix))


def _fields(document: str) -> dict[str, str]:
    pairs = (line.partition(": ") for line in document.splitlines())
    return {key: value for key, _, value in pairs}


def oracle_resultant(p, q, leader):
    """res(p, q) in ``leader`` by cofactor expansion, with the package's
    conventions for degree 0: res(c, Q) = c^deg Q, res(P, c) = c^deg P."""
    lp, lq = as_leader_poly(p, leader), as_leader_poly(q, leader)
    if lp.degree == 0 or lq.degree == 0:
        if lp.degree == lq.degree == 0:
            return p.ctx.one()
        if lp.degree == 0:
            return lp.coefficients[0] ** lq.degree
        return lq.coefficients[0] ** lp.degree
    return det_cofactor(sylvester_matrix(lp, lq), p.ctx)


def check_pipe(item: dict, calls) -> str | None:
    if len(calls) != 2 or calls[0][0] != 0:
        return f"reduce exit {calls[0][0]}: {calls[0][2].strip()}"
    code, out, err = calls[1]
    if (code, out, err) != (0, "valid\n", ""):
        return f"verify exit {code}: {(out + err).strip()}"
    argv = item["argv"]
    ctx = Context(*_flag(argv, "vars").split(","))
    fields = _fields(calls[0][1])
    expected = {
        "F": format_poly(parse_poly(_flag(argv, "dividend"), ctx)),
        "A": format_poly(parse_poly(_flag(argv, "divisor"), ctx)),
        "mode": "weak" if "--weak" in argv else "full",
    }
    for key, value in expected.items():
        if fields.get(key) != value:
            return f"certificate {key} does not restate the input"
    return None


def _check_refusal(slug: str, target, minimal, main: str) -> str | None:
    leader = rank_profile(minimal, main).leader
    if oracle_resultant(minimal, separant(minimal, main), leader).is_zero:
        return None if slug == "vanishing-resultant" else f"{slug} but discriminant vanishes"
    cert = ritt_reduce(target, minimal, main, ReductionMode.WEAK)
    if not verify_certificate(cert).valid:
        return "oracle certificate invalid"
    if cert.remainder.is_zero:
        return None if slug == "reduces-into-ideal" else f"{slug} but target reduces to 0"
    if oracle_resultant(cert.remainder, minimal, leader).is_zero:
        return None if slug == "vanishing-resultant" else f"{slug} but resultant vanishes"
    return f"{slug} refused a valid witness"


def check_witness(item: dict, calls) -> str | None:
    argv = item["argv"]
    main = _flag(argv, "main")
    ctx = Context(*_flag(argv, "vars").split(","))
    target = parse_poly(_flag(argv, "target"), ctx)
    minimal = parse_poly(_flag(argv, "minimal"), ctx)
    code, out, err = calls[0]
    if code == 2 and out == "":
        slug = err.partition("error: ")[2].partition(":")[0]
        if slug in CORRECT_REFUSALS and err.count("\n") == 1:
            return _check_refusal(slug, target, minimal, main)
    if code != 0 or err:
        return f"witness exit {code}: {err.strip()}"
    try:
        w = parse_witness(out)
    except DiffAlgError as exc:
        return f"document does not parse: {exc}"
    if w.main != main or w.a1 is None:
        return "not an algebraic witness over the requested main"
    for label, part in (("a", w.a), ("a1", w.a1), ("a2", w.a2), ("a3", w.a3)):
        if part.is_zero or part.order_in(main) is not None:
            return f"{label} is not a nonzero coefficient-ring element"
    if w.a != w.a1 * w.a2 * w.a3:
        return "a != a1*a2*a3"
    cert = w.weak_certificate
    if (cert.dividend, cert.divisor, cert.mode, cert.m) != (target, minimal, ReductionMode.WEAK, 0):
        return "weak certificate does not restate the inputs"
    if cert.remainder != w.b1 or cert.n != w.n:
        return "B1 or n differs from the weak certificate"
    if not verify_certificate(cert).valid:
        return "weak certificate does not verify"
    if w.a1 != select_coefficient(initial(minimal, main), main):
        return "a1 is not the selected coefficient of the initial"
    leader = rank_profile(minimal, main).leader
    disc = oracle_resultant(minimal, separant(minimal, main), leader)
    if disc.is_zero or w.a2 != select_coefficient(disc, main):
        return "a2 disagrees with the cofactor discriminant"
    res = oracle_resultant(w.b1, minimal, leader)
    if res.is_zero or w.a3 != select_coefficient(res, main):
        return "a3 disagrees with the cofactor resultant"
    return None


def check_item(item: dict, calls) -> str | None:
    """None when ``calls`` (the item's run() results) are correct."""
    try:
        if item["kind"] == "pipe":
            return check_pipe(item, calls)
        return check_witness(item, calls)
    except DiffAlgError as exc:
        return f"check raised {exc.slug}: {exc}"
