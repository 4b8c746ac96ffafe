"""Command-line front door: one subcommand per library operation.

Exit codes: 0 on success, 1 on input or syntax errors, 2 on violated
mathematical preconditions.  Diagnostics go to stderr as a single
``error: <kind>: <detail>`` line, each line break in the detail written as
its escape and the detail clipped to 200 characters; output is written only
on success.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stdout

from .documents import parse_certificate, serialize_certificate, serialize_witness
from .elimination import as_leader_poly, discriminant, resultant
from .errors import DiffAlgError, DomainError, InputError, ParseError
from .polynomials import Context, DerivVar, DiffPoly
from .ranking import initial, rank_profile, separant
from .reduction import ReductionMode, ritt_reduce, verify_certificate
from .syntax import format_poly, parse_poly, render_var
from .witness import chevalley_witness, degree_bound


class _UsageError(InputError):
    @property
    def slug(self) -> str:
        return "usage"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="diffalg", description="Exact differential-polynomial toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help_text: str, *, vars_flag: bool = True):
        p = sub.add_parser(name, help=help_text)
        if vars_flag:
            p.add_argument("--vars", required=True,
                           help="comma-separated declared indeterminates, e.g. u,y")
            p.add_argument("--main", default=None,
                           help="main indeterminate (default: last declared)")
        return p

    p = command("reduce", "divide one polynomial by another, emit a certificate")
    p.add_argument("--dividend", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--weak", action="store_true", help="weak division (m = 0)")

    command("verify", "check a certificate document read from stdin", vars_flag=False)

    p = command("witness", "emit the extension witness document")
    p.add_argument("--target", required=True)
    p.add_argument("--minimal", default=None,
                   help="minimal polynomial of the main indeterminate (omit if none)")

    p = command("resultant", "resultant of two polynomials in a leader variable")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--leader", required=True, help="derivative variable, e.g. y'")

    for name in ("discriminant", "initial", "separant", "rank", "degree-bound"):
        p = command(name, f"{name.replace('-', ' ')} of a polynomial")
        p.add_argument("--poly", required=True)

    p = command("membership", "saturation membership test via full reduction")
    p.add_argument("--dividend", required=True)
    p.add_argument("--divisor", required=True)

    for name in ("parse", "format"):
        p = command(name, "parse surface text and print its canonical form")
        p.add_argument("expr")

    return parser, sub.choices


# argparse parsers keep no state between parse_args calls, so one set serves
# every run().  The top parser has no option but -h and hands every token after
# a command name to that command's parser, so a known name goes there directly,
# skipping a pass as costly; help and usage text come from the same parsers.
_PARSER, _COMMANDS = _build_parser()

_DETAIL_MAX = 200
# Every character str.splitlines() breaks at, written as its escape.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        return _COMMANDS[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return _PARSER.parse_args(argv)


def _context(args) -> Context:
    names = [name.strip() for name in args.vars.split(",")]
    try:
        return Context(*names)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _main_name(args, ctx: Context) -> str:
    name = args.main if args.main is not None else ctx.names[-1]
    ctx.index(name)
    return name


def _parse_leader(text: str, ctx: Context) -> DerivVar:
    p = parse_poly(text, ctx)
    found = p.variables()
    if len(found) == 1:
        (var,) = found
        if p == ctx.var(var.name, var.order):
            return var
    raise ParseError(0, "a single derivative variable", text)


def _dispatch(args, stdin_text: str) -> str:
    if args.command == "verify":
        result = verify_certificate(parse_certificate(stdin_text))
        return "valid\n" if result.valid else f"invalid: {result.reason}\n"

    ctx = _context(args)
    main = _main_name(args, ctx)

    if args.command == "reduce":
        mode = ReductionMode.WEAK if args.weak else ReductionMode.FULL
        cert = ritt_reduce(
            parse_poly(args.dividend, ctx), parse_poly(args.divisor, ctx), main, mode
        )
        return serialize_certificate(cert)

    if args.command == "witness":
        minimal = parse_poly(args.minimal, ctx) if args.minimal is not None else None
        witness = chevalley_witness(parse_poly(args.target, ctx), minimal, main=main)
        return serialize_witness(witness)

    if args.command == "resultant":
        leader = _parse_leader(args.leader, ctx)
        first = parse_poly(args.first, ctx)
        second = parse_poly(args.second, ctx)
        value = resultant(as_leader_poly(first, leader), as_leader_poly(second, leader))
        return format_poly(value) + "\n"

    if args.command == "discriminant":
        return format_poly(discriminant(parse_poly(args.poly, ctx), main)) + "\n"

    if args.command == "initial":
        return format_poly(initial(parse_poly(args.poly, ctx), main)) + "\n"

    if args.command == "separant":
        return format_poly(separant(parse_poly(args.poly, ctx), main)) + "\n"

    if args.command == "rank":
        profile = rank_profile(parse_poly(args.poly, ctx), main)
        if profile.is_constant:
            return "constant\n"
        return (
            f"proper order={profile.order} degree={profile.degree} "
            f"leader={render_var(profile.leader)}\n"
        )

    if args.command == "membership":
        # A zero remainder proves membership in the divisor's saturated
        # differential ideal.  A nonzero one proves non-membership only when
        # the divisor is irreducible over the fraction field of the
        # coefficient ring; the caller asserts that, nothing here tests it.
        cert = ritt_reduce(parse_poly(args.dividend, ctx), parse_poly(args.divisor, ctx), main)
        line = "reduces-to-zero" if cert.remainder.is_zero else "remainder"
        return f"result: {line}\n" + serialize_certificate(cert)

    if args.command == "degree-bound":
        bound = degree_bound(parse_poly(args.poly, ctx), main)
        return ("unbounded" if bound is None else str(bound)) + "\n"

    # parse and format; argparse has refused every other command name.
    return format_poly(parse_poly(args.expr, ctx)) + "\n"


def run(argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """Execute one invocation; returns (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    try:
        with redirect_stdout(out):
            args = _parse(argv)
            # Before Python 3.13, argparse drops the text "--" of "--flag=--"
            # and stores an empty list; every option here takes one text.
            vars(args).update({name: "--" for name, value in vars(args).items() if value == []})
            output = _dispatch(args, stdin_text)
        out.write(output)
        return 0, out.getvalue(), err.getvalue()
    except SystemExit:  # argparse --help; _Parser.error raises instead
        return 0, out.getvalue(), err.getvalue()
    except (InputError, DomainError) as exc:
        # Messages may echo input text; the line stays one short line
        # whatever it is.
        detail = str(exc).translate(_LINE_BREAKS)
        if len(detail) > _DETAIL_MAX:
            detail = detail[:_DETAIL_MAX] + "..."
        err.write(f"error: {exc.slug}: {detail}\n")
        return (2 if isinstance(exc, DomainError) else 1), out.getvalue(), err.getvalue()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    stdin_text = sys.stdin.read() if argv[:1] == ["verify"] else ""
    code, out, err = run(argv, stdin_text)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
