"""Command line interface.

Subcommands: verify, encode, construct, lift, enumerate.  Input paths
accept '-' for stdin.  Exit codes: 0 success, 1 a checked property
failed (axioms, exact round trip), 2 malformed input, unmet
hypothesis or an output that cannot be written (closed or full), 3
internal invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from . import _kernels, io
from .algebra import (
    PropertyCheck,
    check_axioms,
    is_commutative,
    is_implicative,
)
from .census import census
from .codes import enumerate_triangular_codes
from .construct import construct_from_code
from .encode import BckFunction, _code
from .errors import InputError, InternalInvariantError
from .lift import family_algebra, lift_code

_AXIOM_TEXT = {
    1: "((x*y)*(x*z))*(z*y) = 0",
    2: "(x*(x*y))*y = 0",
    3: "x*x = 0",
    4: "x*y = 0 and y*x = 0 imply x = y",
    5: "0*x = 0",
}


def _write_stderr(text: str) -> None:
    """Write ``text`` to stderr; a closed or failing stderr never changes the status."""
    with contextlib.suppress(AttributeError, OSError):
        sys.stderr.write(text)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _witness_str(witness) -> str:
    vars_ = "xyz"
    return ", ".join(f"{vars_[i]}={v}" for i, v in enumerate(witness))


def _property_json(p: PropertyCheck | None):
    return None if p is None else p._asdict()


def cmd_verify(args) -> int:
    alg = io.parse_algebra(_read(args.algebra))
    report = check_axioms(alg)
    comm = impl = pairs = None
    if report.is_bck:
        comm = is_commutative(alg)
        impl = is_implicative(alg)
        # On a BCK table x*y = 0 is the induced partial order, just proved.
        pairs = _kernels.order_pairs(alg.table)

    if args.json:
        payload = {
            "order": alg.order,
            "axioms": [c._asdict() for c in report.checks],
            "bci": report.is_bci,
            "bck": report.is_bck,
            "commutative": _property_json(comm),
            "implicative": _property_json(impl),
            "order_pairs": None if pairs is None else zip(*pairs),
        }
        sys.stdout.writelines(io.stream_report("verify", payload))
    else:
        lines = [f"order: {alg.order}"]
        for c in report.checks:
            if c.holds:
                lines.append(f"axiom {c.axiom} [{_AXIOM_TEXT[c.axiom]}]: holds")
            else:
                got = "" if c.evaluation is None else f", got {c.evaluation}"
                lines.append(
                    f"axiom {c.axiom} [{_AXIOM_TEXT[c.axiom]}]: "
                    f"fails at {_witness_str(c.witness)}{got}"
                )
        lines.append(f"bci: {'yes' if report.is_bci else 'no'}")
        lines.append(f"bck: {'yes' if report.is_bck else 'no'}")
        if report.is_bck:
            for name, p in (("commutative", comm), ("implicative", impl)):
                if p.holds:
                    lines.append(f"{name}: yes")
                else:
                    lines.append(f"{name}: no ({_witness_str(p.witness)})")
            text = " ".join(map("{}<={}".format, *pairs))
            lines.append(f"order pairs: {text or '(none)'}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report.is_bck else 1


def cmd_encode(args) -> int:
    alg = io.parse_algebra(_read(args.algebra))
    report = check_axioms(alg)
    if not report.is_bck:
        failed = [c.axiom for c in report.checks if not c.holds]
        _write_stderr(f"not a BCK-algebra: axiom(s) {', '.join(map(str, failed))} fail\n")
        return 1
    if args.function:
        fn = io.parse_function(_read(args.function), alg)
    else:
        fn = BckFunction.identity(alg)
    code = _code(alg.table, fn.values)
    if args.json:
        payload = {
            "order": alg.order,
            "domain": fn.domain,
            "words": code.strings(),
        }
        sys.stdout.writelines(io.stream_report("encode", payload))
    else:
        sys.stdout.write(
            io.render_code(code, header=f"{len(code)} codewords of length {code.length}")
        )
    return 0


def cmd_construct(args) -> int:
    code = io.parse_code(_read(args.code))
    result = construct_from_code(code)
    if args.json:
        payload = {
            "order": result.algebra.order,
            "table": result.algebra.table,
            "names": result.algebra.names,
            "sorted_code": result.code.strings(),
            "roundtrip": {
                "exact": result.exact,
                "self_describing": result.self_describing,
                "regenerated": result.regenerated.strings(),
                "mismatches": [
                    {
                        "element": m.element,
                        "expected": str(m.expected),
                        "produced": str(m.produced),
                    }
                    for m in result.mismatches
                ],
            },
        }
        sys.stdout.writelines(io.stream_report("construct", payload))
    else:
        out = io.render_algebra(
            result.algebra, header=f"constructed from {len(result.code)} codewords"
        )
        if result.exact:
            out += "# roundtrip: exact\n"
        else:
            out += f"# roundtrip: inexact ({len(result.mismatches)} mismatched rows)\n"
            for m in result.mismatches:
                out += f"# element {m.element}: expected {m.expected} produced {m.produced}\n"
        sys.stdout.write(out)
    if result.exact:
        return 0
    if args.lax:
        _write_stderr("warning: round trip is inexact\n")
        return 0
    return 1


def cmd_lift(args) -> int:
    code = io.parse_code(_read(args.code))
    result = lift_code(code)
    if args.json:
        payload = {
            "source": result.source_code.strings(),
            "ambient_order": len(result.ambient),
            "ambient_matrix": result.ambient.strings(),
            "column_map": result.column_map,
            "domain": result.domain,
            "lifted": result.lifted_code.strings(),
        }
        sys.stdout.writelines(io.stream_report("lift", payload))
    else:
        lines = [
            f"# lifted {len(result.source_code)} codewords of length "
            f"{result.source_code.length} into order {len(result.ambient)}",
            "# ambient matrix:",
        ]
        lines.extend("#   " + row for row in result.ambient.strings())
        lines.append(
            "# columns: "
            + " ".join(f"{j}->{e}" for j, e in enumerate(result.column_map))
        )
        lines.extend(result.lifted_code.strings())
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    n = args.order
    if args.codes:
        # order 8 prints 2,097,152 codes, so it needs --max-order 8; the
        # library refuses every order above 8 itself
        if n > 7 and (args.max_order or 0) < 8:
            raise InputError(f"n={n} exceeds the bound 7")
        codes = enumerate_triangular_codes(n)
        count = 2 ** ((n - 1) * (n - 2) // 2)
        if args.json:
            payload = {"order": n, "count": count, "codes": (c.strings() for c in codes)}
            sys.stdout.writelines(io.stream_report("codes", payload))
        else:
            sys.stdout.write(f"count: {count}\n")
            for c in codes:
                sys.stdout.write(" ".join(c.strings()) + "\n")
        return 0

    if args.algebras:
        if n == 6:
            if (args.max_order or 0) < n:
                raise InputError("order 6 needs --max-order 6 and can take a while")
            _write_stderr(f"warning: order {n} enumeration may take a while\n")
        report = census(n)
        if args.json:
            # the summary keys are the report's fields, in field order
            payload = report._asdict()
            payload["classes"] = [
                {
                    "size": e.size,
                    "table": e.representative.table,
                    "code": e.code.strings(),
                    "label_canonical_code": e.label_canonical.strings(),
                }
                for e in payload.pop("class_inventory")
            ]
            sys.stdout.writelines(io.stream_report("census", payload))
        else:
            lines = [
                f"order: {report.order}",
                f"tables: {report.total_tables}",
                f"iso classes: {report.iso_classes}",
                f"similarity classes: {report.similarity_classes}",
                f"label-canonical classes: {report.label_canonical_classes}",
                f"bound 2^((n-1)(n-2)/2): {report.bound}",
                f"bound check: {'pass' if report.bound_check else 'FAIL'}",
                "code varies within iso class: "
                + ("yes" if report.code_varies_within_iso_class else "no"),
            ]
            sys.stdout.write("\n".join(lines) + "\n")
        return 0

    algebra, code = family_algebra(n)
    if args.json:
        payload = {
            "order": algebra.order,
            "table": iter(algebra.table),
            "code": code.strings(),
        }
        sys.stdout.writelines(io.stream_report("family", payload))
    else:
        sys.stdout.write(io.render_algebra(
            algebra, header=f"algebra of the {algebra.order} order-{n} family members"
        ))
        sys.stdout.write("# canonical code:\n" + "".join([f"# {w}\n" for w in code.strings()]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bckcodes",
        description="Convert between finite BCK-algebras and binary block codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the five axioms and derived properties")
    p.add_argument("algebra", help="algebra file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("encode", help="generate the block code of an algebra")
    p.add_argument("algebra", help="algebra file, or - for stdin")
    p.add_argument("--function", help="function file (default: identity)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("construct", help="build the algebra of a triangular code")
    p.add_argument("code", help="code file, or - for stdin")
    p.add_argument(
        "--lax", action="store_true", help="exit 0 even when the round trip is inexact"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("lift", help="embed any code into the triangular family")
    p.add_argument("code", help="code file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("enumerate", help="sweep codes, algebras, or the family algebra")
    p.add_argument("--order", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--codes", action="store_true", help="triangular-family codes")
    group.add_argument("--algebras", action="store_true", help="BCK census")
    group.add_argument("--family", action="store_true", help="family algebra and code")
    p.add_argument("--max-order", type=int, default=None, help="raise the size bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _write_stderr(f"error: {exc}\n")
        return 2
    except InternalInvariantError as exc:
        _write_stderr(f"internal error: {exc}\n")
        return 3


def console_main() -> None:
    try:
        if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        status = main()
        sys.stdout.flush()
    except OSError as exc:
        # main() turns every read error into InputError, so writing the
        # output failed.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        reason = "the reader closed it" if isinstance(exc, BrokenPipeError) else exc.strerror
        _write_stderr(f"error: cannot write to stdout: {reason}\n")
        status = 2
    sys.exit(status)
