import contextlib
import hashlib
import importlib
import io as stdio
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bckcodes as bc
from bckcodes import _kernels, cli, construct, io, lift
from bckcodes._kernels import pure
from bckcodes.cli import main
import reference_data as rd
from test_kernels import _NOT_TRANSITIVE, _relabeled, _times_indicator

ALG4_TEXT = "4\n0 0 0 0\n1 0 0 1\n2 1 0 2\n3 3 3 0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- file formats


def test_parse_algebra_accepts_comments_and_blanks():
    text = "# cayley table\n\n4\n# rows follow\n0 0 0 0\n1 0 0 1\n2 1 0 2\n3 3 3 0\n"
    assert io.parse_algebra(text).table == rd.ALG4_COMMUTATIVE


def test_render_algebra_roundtrip(alg4_commutative):
    rendered = io.render_algebra(alg4_commutative, header="anything")
    assert io.parse_algebra(rendered) == alg4_commutative


def _render_algebra_per_cell(alg, header=None):
    """`io.render_algebra` as it formatted each cell on its own."""
    out = []
    if header:
        out.append(f"# {header}")
    if alg.names is not None:
        out.append("# elements: " + " ".join(alg.names))
    out.append(str(alg.order))
    width = len(str(alg.order - 1))
    for row in alg.table:
        out.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("n", [1, 9, 10, 100, 1000])
def test_render_algebra_matches_per_cell_formatting(n):
    rng = random.Random(n)
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    names = tuple(f"e{i}" for i in range(n))
    for alg in (bc.CayleyAlgebra(table), bc.CayleyAlgebra(table, names)):
        for header in (None, f"random order-{n} table"):
            got = io.render_algebra(alg, header).split("\n")
            want = _render_algebra_per_cell(alg, header).split("\n")
            assert len(got) == len(want)
            # line by line, so a failure does not diff two megabyte strings
            for got_line, want_line in zip(got, want):
                assert got_line == want_line


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ),
    )
))
def test_algebra_roundtrip_any_table(case):
    n, rows = case
    alg = bc.CayleyAlgebra(tuple(tuple(r) for r in rows))
    assert io.parse_algebra(io.render_algebra(alg)) == alg


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no data lines"),
        ("abc\n", "expected the order"),
        ("0\n", "order must be positive"),
        ("1025\n0\n", "line 1: order 1025 exceeds the bound 1024"),
        ("1024\n", "expected 1024 table rows, found 0"),
        ("2\n0 0\n", "expected 2 table rows"),
        ("2\n0 0\n1 0 0\n", "line 3: expected 2 entries"),
        ("2\n0 0\n1 x\n", "line 3: table entries must be integers"),
        ("2\n0 0\n1 5\n", "line 3: table entry outside 0..1"),
    ],
)
def test_parse_algebra_errors(text, fragment):
    with pytest.raises(bc.ParseError) as exc:
        io.parse_algebra(text)
    assert fragment in str(exc.value)


def _ascii_int(token):
    """`int` on ASCII decimal text: a sign at most, then the digits 0-9."""
    if re.fullmatch(r"[+-]?[0-9]+", token) is None:
        raise ValueError(token)
    return int(token)


def _parse_algebra_reference(text):
    """The rows as `io.parse_algebra` reads them with `_ascii_int`, after a valid header."""
    (_, head), *lines = io._data_lines(text)
    n = int(head)
    rows = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != n:
            raise bc.ParseError(f"expected {n} entries, found {len(parts)}", lineno)
        try:
            row = tuple(map(_ascii_int, parts))
        except ValueError:
            raise bc.ParseError("table entries must be integers", lineno) from None
        if min(row) < 0 or max(row) >= n:
            raise bc.ParseError(f"table entry outside 0..{n - 1}", lineno)
        rows.append(row)
    return tuple(rows)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except bc.ParseError as exc:
        return str(exc), exc.line


# Spellings `int` reads but the cell lookup does not, and tokens it rejects;
# "1_0", "\uff13", "\uff11" and "\u0663" are read by `int` but not by the parser.
_SPELLINGS = ["03", "+3", "-0", "+0", "00", "1_0", "\uff13", "\uff11", "\u0663", "4", "-1",
              "99", "x", "1.0", "0x1", "3a", "_1"]


def _check_parse_against_reference(text):
    new = _parse_outcome(lambda s: io.parse_algebra(s).table, text)
    assert new == _parse_outcome(_parse_algebra_reference, text)


@pytest.mark.parametrize("token", _SPELLINGS)
def test_parse_algebra_reads_every_spelling_as_int_does(token):
    for x, y in [(0, 0), (2, 1), (3, 3)]:
        rows = [row.split() for row in ALG4_TEXT.splitlines()[1:]]
        rows[x][y] = token
        _check_parse_against_reference("4\n" + "".join(" ".join(r) + "\n" for r in rows))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.one_of(st.integers(-1, n).map(str), st.sampled_from(_SPELLINGS)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_parse_algebra_matches_the_int_parser(case):
    n, rows = case
    _check_parse_against_reference(f"{n}\n" + "".join(" ".join(r) + "\n" for r in rows))


# Digits of other scripts and '_' separators, each of which `int` reads.
_NOT_ASCII_DECIMAL = ["\u0663", "\uff11", "1_0"]


@pytest.mark.parametrize("token", _NOT_ASCII_DECIMAL)
def test_parse_algebra_rejects_a_header_int_reads_but_not_as_ascii(token):
    n = int(token)
    text = f"{token}\n" + "".join(" ".join(["0"] * n) + "\n" for _ in range(n))
    with pytest.raises(bc.ParseError) as exc:
        io.parse_algebra(text)
    assert str(exc.value) == f"line 1: expected the order, got {token!r}"


@pytest.mark.parametrize("token", _NOT_ASCII_DECIMAL)
def test_parse_function_rejects_a_value_int_reads_but_not_as_ascii(token):
    alg = bc.CayleyAlgebra(_times_indicator([[0]], 4))  # order 16, so int(token) fits
    with pytest.raises(bc.ParseError) as exc:
        io.parse_function(f"a 0\nb {token}\n", alg)
    assert str(exc.value) == f"line 2: value must be an integer, got {token!r}"


def _codewords(count: int) -> str:
    return "".join(f"{v:011b}\n" for v in range(count))


def _labels(count: int) -> str:
    return "".join(f"l{i} 0\n" for i in range(count))


def test_readers_take_1024_codewords_and_labels(alg4_commutative):
    assert len(io.parse_code(_codewords(1024))) == 1024
    assert len(io.parse_function(_labels(1024), alg4_commutative).domain) == 1024


def test_parse_code_roundtrip():
    text = "# four words\n1111\n\n0110\n0010\n0001\n"
    code = io.parse_code(text)
    assert code.strings() == rd.CODE4
    assert io.parse_code(io.render_code(code, header="x")) == code


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no codewords"),
        ("10a\n", "line 1: codeword may only contain 0 and 1"),
        ("11\n101\n", "line 2: codeword length 3 differs"),
        ("11\n11\n", "line 2: duplicate codeword"),
        pytest.param(
            _codewords(1025), "line 1025: more than 1024 codewords", id="1025 codewords"
        ),
    ],
)
def test_parse_code_errors(text, fragment):
    with pytest.raises(bc.ParseError) as exc:
        io.parse_code(text)
    assert fragment in str(exc.value)


def test_parse_function(alg4_commutative):
    fn = io.parse_function("# f\na 0\nb 3\n", alg4_commutative)
    assert fn.domain == ("a", "b")
    assert fn.values == (0, 3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no entries"),
        ("a\n", "expected 'label value'"),
        ("a x\n", "value must be an integer"),
        ("a 9\n", "value 9 outside 0..3"),
        ("a 0\na 1\n", "duplicate label 'a'"),
        pytest.param(_labels(1025), "line 1025: more than 1024 labels", id="1025 labels"),
    ],
)
def test_parse_function_errors(text, fragment, alg4_commutative):
    with pytest.raises(bc.ParseError) as exc:
        io.parse_function(text, alg4_commutative)
    assert fragment in str(exc.value)


def test_parse_function_finds_a_late_duplicate_label_quickly(alg4_commutative):
    # the duplicate follows the 1,024 labels the reader takes, and a
    # 100,000-label file stops at its 1,025th label in the same one pass
    cases = {
        _labels(1024) + "l0 1\n": "line 1025: duplicate label 'l0'",
        _labels(100_000) + "l0 1\n": "line 1025: more than 1024 labels",
    }

    def timeout(signum, frame):
        raise TimeoutError("parse_function took more than 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        for text, message in cases.items():
            with pytest.raises(bc.ParseError) as exc:
                io.parse_function(text, alg4_commutative)
            assert str(exc.value) == message
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_report_roundtrip():
    rendered = io.render_report("verify", {"bck": True})
    data = io.parse_report(rendered)
    assert data["kind"] == "verify"
    assert data["bck"] is True
    assert data["report_version"] == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("not json", "invalid JSON report"),
        ("[1, 2]", "report must be a JSON object"),
        ('{"report_version": 2}', "unsupported report_version 2"),
    ],
)
def test_parse_report_errors(text, fragment):
    with pytest.raises(bc.ParseError) as exc:
        io.parse_report(text)
    assert fragment in str(exc.value)


# ------------------------------------------------------------------------ CLI


def test_cli_verify_text(tmp_path, capsys):
    path = _write(tmp_path, "alg.txt", ALG4_TEXT)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out
    assert out.count("holds") == 5
    assert "bck: yes" in out
    assert "commutative: yes" in out
    assert "implicative: no" in out
    assert "order pairs: 0<=1 0<=2 0<=3 1<=2" in out


def test_cli_verify_json(tmp_path, capsys):
    path = _write(tmp_path, "alg.txt", ALG4_TEXT)
    assert main(["verify", path, "--json"]) == 0
    data = io.parse_report(capsys.readouterr().out)
    assert data["kind"] == "verify"
    assert data["bck"] is True and data["bci"] is True
    assert [c["axiom"] for c in data["axioms"]] == [1, 2, 3, 4, 5]
    assert all(c["holds"] for c in data["axioms"])
    assert data["order_pairs"] == [list(p) for p in rd.ORDER4_PAIRS]
    assert data["commutative"]["holds"] is True
    assert data["implicative"]["holds"] is False


def test_cli_verify_failure_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "2\n0 0\n1 1\n")
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "axiom 3 [x*x = 0]: fails at x=1" in out
    assert "bck: no" in out


@pytest.mark.parametrize("perturbed", [False, True])
def test_cli_verify_prints_the_same_on_both_scan_paths(tmp_path, monkeypatch, perturbed):
    # an order-64 table takes the array axiom scan; forcing the loop scan
    # must not change a byte of either output format or the exit code
    rng = random.Random(64)
    n = 64
    table = _relabeled(bc.pointwise_function_algebra(6).table, rng)
    if perturbed:
        x, y = divmod(rng.randrange(n * n), n)
        table[x][y] = rng.randrange(n)
    text = "".join(" ".join(map(str, row)) + "\n" for row in table)
    path = _write(tmp_path, "alg.txt", f"{n}\n{text}")

    def run():
        results = []
        for flags in ([], ["--json"]):
            bc.check_axioms.cache_clear()
            out = stdio.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["verify", path, *flags])
            results.append((code, out.getvalue()))
        return results

    arrays = run()
    monkeypatch.setattr(pure, "_NUMPY_MIN_ORDER", 10**9)
    assert run() == arrays
    assert [code for code, _ in arrays] == [int(perturbed)] * 2


def test_cli_verify_runs_each_property_scan_once(tmp_path, monkeypatch):
    alg = bc.pointwise_function_algebra(6)
    path = _write(tmp_path, "alg.txt", io.render_algebra(alg))
    calls = []
    for name in ("commutative_witness", "implicative_witness"):
        scan = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name, lambda t, scan=scan, name=name: calls.append(name) or scan(t)
        )
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert main(["verify", path]) == 0
    assert sorted(calls) == ["commutative_witness", "implicative_witness"]


@pytest.fixture(scope="module")
def order_1024_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "alg.txt"
    path.write_text(io.render_algebra(bc.pointwise_function_algebra(10)))
    return str(path)


def test_cli_verify_copies_the_table_to_an_array_once(order_1024_path, monkeypatch):
    copies = 0
    # patch numpy itself: pure.np is None until the first array scan binds it
    fromiter = numpy.fromiter

    def counting(*args, **kwargs):
        nonlocal copies
        copies += 1
        return fromiter(*args, **kwargs)

    monkeypatch.setattr(numpy, "fromiter", counting)
    bc.check_axioms.cache_clear()
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert main(["verify", "--json", order_1024_path]) == 0
    assert copies == 1


@pytest.mark.parametrize("flags, digest", [
    ([], "3faebe37671eca0a75c7f82c3d647d46"),
    (["--json"], "f4f0f5054c009dd54d10a6d304eca1dd"),
], ids=["text", "json"])
def test_cli_verify_order_1024_output_is_pinned(order_1024_path, flags, digest, capsys):
    # the array path's axiom-1 proof must print what the axiom-1 scan printed
    _assert_verify_digest(order_1024_path, flags, 0, digest, capsys)


def _assert_verify_digest(path, flags, code, digest, capsys):
    bc.check_axioms.cache_clear()
    assert main(["verify", path, *flags]) == code
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags, digest", [
    ([], "6363af4a0b869c1c27a6bbc296fedd9c"),
    (["--json"], "d2c67cbb7e015dda96577eb065c070b7"),
], ids=["text", "json"])
def test_cli_verify_order_1024_chain_output_is_pinned(tmp_path, flags, digest, capsys):
    # The most pairs with x*y = 0 at this order (524,800) and the fewest
    # covers (1,023): the worst case for right monotonicity over all pairs.
    n = 1024
    chain = tuple(tuple(0 if x <= y else x for y in range(n)) for x in range(n))
    path = _write(tmp_path, "chain.txt", io.render_algebra(bc.CayleyAlgebra(chain)))
    _assert_verify_digest(path, flags, 0, digest, capsys)


@pytest.mark.parametrize("flags, digest", [
    ([], "1d3f7b3363478bead869157aac8646f3"),
    (["--json"], "f5d82f9fb5a9029cfe36883809fb3034"),
], ids=["text", "json"])
def test_cli_verify_non_bck_order_32_output_is_pinned(tmp_path, flags, digest, capsys):
    # not BCK, so "order_pairs" is null and render_report writes the report
    table = tuple(map(tuple, _times_indicator(_NOT_TRANSITIVE, 3)))
    path = _write(tmp_path, "alg.txt", io.render_algebra(bc.CayleyAlgebra(table)))
    _assert_verify_digest(path, flags, 1, digest, capsys)


@pytest.fixture(scope="module")
def family_6_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("family") / "family6.txt"
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", "--family", "--order", "6"]) == 0
    path.write_text(out.getvalue())
    return str(path)


@pytest.mark.parametrize("flags, digest", [
    ([], "618039b77035aa394f3409cc0cfdaa52"),
    (["--json"], "e53f34a4a02d37a257faece56813d96e"),
], ids=["text", "json"])
def test_cli_verify_family_6_output_is_pinned(family_6_path, flags, digest, capsys):
    # every x*y is 0 or x, so each x reads at most two representatives
    _assert_verify_digest(family_6_path, flags, 0, digest, capsys)


def test_cli_verify_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", stdio.TextIOWrapper(stdio.BytesIO(ALG4_TEXT.encode()), encoding="utf-8")
    )
    assert main(["verify", "-"]) == 0
    assert "bck: yes" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "encode"])
def test_cli_rejects_algebras_above_the_order_bound(tmp_path, capsys, command):
    path = _write(tmp_path, "alg.txt", "1025\n")
    assert main([command, path]) == 2
    assert capsys.readouterr().err == "error: line 1: order 1025 exceeds the bound 1024\n"


def test_cli_verify_parse_error_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "alg.txt", "2\n0 0\n")
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "case", ["missing", "undecodable", "undecodable-function", "undecodable-stdin"]
)
def test_cli_missing_file_exits_2(tmp_path, monkeypatch, capsys, case):
    # input that cannot be read as UTF-8 text is malformed input, not a
    # failed property and not a traceback; under a C/POSIX locale the
    # real stdin decodes with surrogateescape, which never raises
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    alg = _write(tmp_path, "alg.txt", ALG4_TEXT)
    monkeypatch.setattr(
        "sys.stdin",
        stdio.TextIOWrapper(
            stdio.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="surrogateescape"
        ),
    )
    argv = {
        "missing": ["verify", str(tmp_path / "nope.txt")],
        "undecodable": ["verify", str(bad)],
        "undecodable-function": ["encode", alg, "--function", str(bad)],
        "undecodable-stdin": ["verify", "-"],
    }[case]
    assert main(argv) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_encode_identity(tmp_path, capsys):
    path = _write(tmp_path, "alg.txt", ALG4_TEXT)
    assert main(["encode", path]) == 0
    code = io.parse_code(capsys.readouterr().out)
    assert code.strings() == rd.CODE4


def test_cli_encode_with_function(tmp_path, capsys, alg4_commutative):
    alg_path = _write(tmp_path, "alg.txt", ALG4_TEXT)
    fn_path = _write(tmp_path, "fn.txt", "p 1\nq 3\n")
    assert main(["encode", alg_path, "--function", fn_path, "--json"]) == 0
    data = io.parse_report(capsys.readouterr().out)
    fn = bc.BckFunction(("p", "q"), alg4_commutative, (1, 3))
    assert data["domain"] == ["p", "q"]
    assert data["words"] == list(bc.generate_code(fn).strings())


def test_cli_encode_rejects_non_bck(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "2\n0 1\n1 0\n")
    assert main(["encode", path]) == 1
    assert "not a BCK-algebra" in capsys.readouterr().err


def test_cli_encode_checks_the_axioms_once(tmp_path, monkeypatch, capsys):
    calls = []
    check = cli.check_axioms

    def counting(alg):
        calls.append(alg.table)
        return check(alg)

    for name in ("bckcodes.algebra", "bckcodes.cli", "bckcodes.encode"):
        monkeypatch.setattr(importlib.import_module(name), "check_axioms", counting)
    path = _write(tmp_path, "alg.txt", ALG4_TEXT)
    assert main(["encode", path]) == 0
    assert io.parse_code(capsys.readouterr().out).strings() == rd.CODE4
    assert calls == [rd.ALG4_COMMUTATIVE]


def test_cli_construct_exact(tmp_path, capsys):
    path = _write(tmp_path, "code.txt", "\n".join(rd.CODE4) + "\n")
    assert main(["construct", path]) == 0
    out = capsys.readouterr().out
    assert "# roundtrip: exact" in out
    assert io.parse_algebra(out).table == rd.ALG4_FROM_CODE


def test_cli_construct_json(tmp_path, capsys):
    path = _write(tmp_path, "code.txt", "\n".join(rd.CODE4) + "\n")
    assert main(["construct", path, "--json"]) == 0
    data = io.parse_report(capsys.readouterr().out)
    assert data["table"] == [list(r) for r in rd.ALG4_FROM_CODE]
    assert data["roundtrip"]["exact"] is True
    assert data["roundtrip"]["self_describing"] is True
    assert data["names"] == ["w1", "w2", "w3", "w4"]


def test_cli_construct_inexact(tmp_path, capsys):
    path = _write(
        tmp_path, "code.txt", "\n".join(rd.ROUNDTRIP_COUNTEREXAMPLE) + "\n"
    )
    assert main(["construct", path]) == 1
    out = capsys.readouterr().out
    assert "# roundtrip: inexact" in out

    assert main(["construct", path, "--lax"]) == 0
    captured = capsys.readouterr()
    assert "warning: round trip is inexact" in captured.err


def test_cli_construct_builds_the_algebra_once(tmp_path, monkeypatch, capsys):
    calls = []
    build = construct.construct_from_code

    def counting(code):
        calls.append(code)
        return build(code)

    monkeypatch.setattr(cli, "construct_from_code", counting)
    monkeypatch.setattr(construct, "construct_from_code", counting)
    path = _write(tmp_path, "code.txt", "\n".join(rd.CODE4) + "\n")
    assert main(["construct", path]) == 0
    assert len(calls) == 1


def test_cli_construct_rejects_non_member(tmp_path, capsys):
    path = _write(tmp_path, "code.txt", "10\n01\n")
    assert main(["construct", path]) == 2
    assert "not a triangular-family code" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,words,message",
    [
        (
            "construct",
            ["0" * k + "1" * (1025 - k) for k in range(1025)],
            "line 1: codeword length 1025 exceeds the bound 1024",
        ),
        ("lift", [format(v, "0512b") for v in range(513)], "ambient order 1026 exceeds the bound 1024"),
    ],
    ids=["construct", "lift"],
)
def test_cli_construct_and_lift_reject_orders_above_the_bound(tmp_path, capsys, command, words, message):
    path = _write(tmp_path, "code.txt", "\n".join(words) + "\n")
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_cli_lift_text(tmp_path, capsys):
    path = _write(tmp_path, "code.txt", "\n".join(rd.LIFT_INPUT) + "\n")
    assert main(["lift", path]) == 0
    out = capsys.readouterr().out
    words = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert tuple(words) == rd.LIFT_OUTPUT
    assert "# columns: 0->5 1->6 2->7 3->8 4->9" in out


def test_cli_lift_json(tmp_path, capsys):
    path = _write(tmp_path, "code.txt", "\n".join(rd.LIFT_INPUT) + "\n")
    assert main(["lift", path, "--json"]) == 0
    data = io.parse_report(capsys.readouterr().out)
    assert data["ambient_order"] == 10
    assert data["ambient_matrix"] == list(rd.LIFT_COMPLETED)
    assert data["column_map"] == list(rd.LIFT_COLUMN_MAP)
    assert data["lifted"] == list(rd.LIFT_OUTPUT)
    assert data["source"] == list(rd.LIFT_INPUT_SORTED)


def test_cli_construct_json_on_every_order_5_code_is_pinned(tmp_path, capsys):
    # all 64 members, 40 exact round trips and 24 inexact ones
    out = []
    for i, code in enumerate(bc.enumerate_triangular_codes(5)):
        path = _write(tmp_path, f"code{i}.txt", "\n".join(code.strings()) + "\n")
        assert main(["construct", "--json", "--lax", path]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.md5("".join(out).encode()).hexdigest() == "766dde877731d7dc1d762487267a3c76"


def _seeded_lift_sources(count=200, seed=18):
    """Seeded codes of 1-6 distinct words of 1-5 bits, each as its lines."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 5)
        values = rng.sample(range(1 << m), rng.randint(1, min(6, 1 << m)))
        yield [format(v, f"0{m}b") for v in values]


def test_cli_lift_json_on_seeded_codes_is_pinned(tmp_path, capsys):
    out = []
    for i, lines in enumerate(_seeded_lift_sources()):
        path = _write(tmp_path, f"code{i}.txt", "\n".join(lines) + "\n")
        assert main(["lift", "--json", path]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.md5("".join(out).encode()).hexdigest() == "d0c35675ede6636db0ff4d469c5ea614"


def test_cli_enumerate_codes(capsys):
    assert main(["enumerate", "--order", "4", "--codes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "count: 8"
    assert len(lines) == 9
    assert all(len(line.split()) == 4 for line in lines[1:])


def test_cli_enumerate_algebras(capsys):
    assert main(["enumerate", "--order", "3", "--algebras"]) == 0
    out = capsys.readouterr().out
    assert "tables: 5" in out
    assert "iso classes: 3" in out
    assert "bound check: pass" in out


def test_cli_enumerate_algebras_json(capsys):
    assert main(["enumerate", "--order", "3", "--algebras", "--json"]) == 0
    data = io.parse_report(capsys.readouterr().out)
    assert data["total_tables"] == 5
    assert data["iso_classes"] == 3
    assert sum(c["size"] for c in data["classes"]) == 5


def test_cli_enumerate_family_json(capsys):
    assert main(["enumerate", "--order", "3", "--family", "--json"]) == 0
    data = io.parse_report(capsys.readouterr().out)
    assert data["table"] == [[0, 0], [1, 0]]
    assert data["code"] == list(rd.CHAIN2_CODE)


@pytest.mark.parametrize("flags, digest", [
    ([], "db9fce8d0f6026751ec5f24a8d0c3d293fdb2b2c20d92d3923d70a075776147f"),
    (["--json"], "8ddae7df8c78edf520bc13cb8cfc87eb99573a2027505ea0f5b9393518f1ef35"),
], ids=["text", "json"])
def test_cli_enumerate_family_order_6_output_is_pinned(flags, digest, capsys):
    assert main(["enumerate", "--family", "--order", "6", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_enumerate_order_6_needs_explicit_cap(capsys):
    assert main(["enumerate", "--order", "6", "--algebras"]) == 2
    assert "--max-order 6" in capsys.readouterr().err


def test_cli_enumerate_order_6_warns_and_allows_the_large_census(monkeypatch, capsys):
    # a stand-in census: the order-6 one takes about 16 s
    seen = []

    def small_census(n):
        seen.append(n)
        return bc.census(5)

    monkeypatch.setattr(cli, "census", small_census)
    assert main(["enumerate", "--algebras", "--order", "6", "--max-order", "6"]) == 0
    assert capsys.readouterr().err == "warning: order 6 enumeration may take a while\n"
    assert seen == [6]


def test_cli_enumerate_order_7_exits_2_without_a_warning(capsys):
    assert main(["enumerate", "--order", "7", "--algebras", "--max-order", "7"]) == 2
    err = capsys.readouterr().err
    assert "order 7 is out of scope" in err
    assert "warning" not in err


def test_cli_enumerate_codes_out_of_range(capsys):
    assert main(["enumerate", "--order", "9", "--codes"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("order, max_order, message", [
    (8, [], "n=8 exceeds the bound 7"),
    (9, [], "n=9 exceeds the bound 7"),
    (8, ["--max-order", "4"], "n=8 exceeds the bound 7"),
    (9, ["--max-order", "8"], "n=9 exceeds the bound 8"),
    (9, ["--max-order", "9"], "n=9 exceeds the bound 8"),
    (9, ["--max-order", "12"], "n=9 exceeds the bound 8"),
    (12, ["--max-order", "8"], "n=12 exceeds the bound 8"),
    (0, [], "n must be positive"),
    (-2, ["--max-order", "8"], "n must be positive"),
])
def test_cli_enumerate_codes_names_its_bound(order, max_order, message, capsys):
    # The CLI stops at order 7 unless --max-order reaches 8; above 8 the
    # library's own ceiling speaks, whatever the flag says.
    assert main(["enumerate", "--codes", "--order", str(order), *max_order]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _limit_memory():
    # 1 GB of address space: a regression that builds the order-12 family
    # dies with MemoryError in the child instead of exhausting the host.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cli_enumerate_codes_above_the_ceiling_exits_2():
    src = str(Path(bc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bckcodes", "enumerate", "--codes"]
        + ["--order", "12", "--max-order", "12"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_memory,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_cli_closed_stdout_exits_2_without_a_traceback():
    # The order-7 listing is about 1.8 MB, far more than a pipe buffer, so
    # the command is still writing when the reader closes the pipe.
    src = str(Path(bc.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bckcodes", "enumerate", "--codes", "--order", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"count: 32768\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err == "error: cannot write to stdout: the reader closed it\n"


def test_cli_output_buffered_for_a_closed_pipe_exits_2_with_one_error_line():
    # The read end is closed before the command starts, and a buffered
    # stdout holds the small output until the last flush, which fails; the
    # flush at interpreter exit must not fail again (exit 120).
    src = str(Path(bc.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bckcodes", "enumerate", "--family", "--order", "4"],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write to stdout: the reader closed it\n"


def _run_console_script(argv, **kwargs) -> subprocess.CompletedProcess:
    src = str(Path(bc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "bckcodes", *argv], env=env, timeout=120, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["verify", "{alg}"], ["enumerate", "--codes", "--order", "7"]],
    ids=["last-flush", "mid-output"],
)
def test_cli_full_disk_exits_2_without_a_traceback(tmp_path, argv):
    # verify's few lines fail at the last flush, the order-7 listing while it is written
    alg = tmp_path / "alg.txt"
    alg.write_text("4\n0 0 0 0\n1 0 0 1\n2 1 0 2\n3 3 3 0\n")
    argv = [arg.format(alg=alg) for arg in argv]
    with open("/dev/full", "wb") as full:
        proc = _run_console_script(argv, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == b"error: cannot write to stdout: No space left on device\n"


@pytest.mark.parametrize(
    "closed,err",
    [((1,), b"error: cannot write to stdout: Bad file descriptor\n"), ((1, 2), b"")],
    ids=["stdout", "stdout-and-stderr"],
)
def test_cli_closed_descriptors_exit_2_without_a_traceback(tmp_path, closed, err):
    alg = tmp_path / "alg.txt"
    alg.write_text("4\n0 0 0 0\n1 0 0 1\n2 1 0 2\n3 3 3 0\n")

    def close():  # in the child, before the interpreter starts
        for fd in closed:
            os.close(fd)

    proc = _run_console_script(["verify", str(alg)], stderr=subprocess.PIPE, preexec_fn=close)
    assert proc.returncode == 2
    assert proc.stderr == err


# Runs console_main with any uncaught traceback sent to stdout, since
# stderr is unusable; "--fail" first makes verify breach an internal invariant.
_CLOSED_STDERR_CHILD = """
import sys, traceback
from bckcodes import cli, errors
sys.excepthook = lambda *exc: sys.stdout.write("".join(traceback.format_exception(*exc)))
if sys.argv[1] == "--fail":
    del sys.argv[1]
    def fail(args):
        raise errors.InternalInvariantError("forced")
    cli.cmd_verify = fail
cli.console_main()
"""


@pytest.mark.parametrize("stderr", ["closed", "full"])  # sys.stderr is None, or writes fail
@pytest.mark.parametrize(
    "argv,status",
    [(["encode", "{zero}"], 1), (["verify", "{missing}"], 2), (["--fail", "verify", "{zero}"], 3)],
    ids=["not-bck", "input-error", "internal-error"],
)
def test_cli_unwritable_stderr_keeps_the_exit_status(tmp_path, argv, status, stderr):
    if stderr == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    zero = tmp_path / "zero.txt"
    zero.write_text("2\n0 0\n0 0\n")  # fails axiom 4
    argv = [arg.format(zero=zero, missing=tmp_path / "missing.txt") for arg in argv]
    src = str(Path(bc.__file__).resolve().parent.parent)
    with contextlib.ExitStack() as stack:
        if stderr == "closed":
            redirect = {"preexec_fn": lambda: os.close(2)}
        else:
            redirect = {"stderr": stack.enter_context(open("/dev/full", "wb"))}
        proc = subprocess.run(
            [sys.executable, "-c", _CLOSED_STDERR_CHILD, *argv],
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
            **redirect,
        )
    assert proc.returncode == status
    assert b"Traceback" not in proc.stdout


def _json_dumps_report(kind, payload):
    """A report as the standard library's indenting encoder writes it: the writer's oracle."""
    body = {"report_version": 1, "kind": kind}
    body.update(payload)
    return json.dumps(body, indent=2) + "\n"


@pytest.mark.parametrize("n", [1, 2, 5])
def test_cli_enumerate_codes_json_streams_the_report(n, capsys):
    assert main(["enumerate", "--order", str(n), "--codes", "--json"]) == 0
    out = capsys.readouterr().out
    codes = [list(c.strings()) for c in bc.enumerate_triangular_codes(n)]
    payload = {"order": n, "count": len(codes), "codes": codes}
    assert out == _json_dumps_report("codes", payload)


@pytest.mark.parametrize("items", [[], [["1"]], [["11", "01"], ["10", "00"]]])
def test_stream_report_joins_to_render_report(items):
    pieces = io.stream_report("codes", {"order": 2, "codes": iter(items)})
    expected = _json_dumps_report("codes", {"order": 2, "codes": items})
    assert "".join(pieces) == expected
    assert io.render_report("codes", {"order": 2, "codes": items}) == expected


_json_scalars = st.one_of(
    st.integers(), st.booleans(), st.none(), st.floats(),  # floats include NaN and infinities
    st.text(), st.text('"\\\n\t/\u00e9\u2028\U0001f600\x00'),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_row_pools = st.one_of(
    st.lists(st.tuples(st.integers(), st.integers()), min_size=1, max_size=4),  # order pairs
    *(
        st.lists(st.one_of(st.lists(cells, max_size=4), st.tuples(cells, cells)), min_size=1, max_size=4)
        for cells in (st.integers(), st.integers() | st.booleans(), _json_scalars)
    ),
)
_row_counts = st.one_of(st.integers(0, 6), st.sampled_from([4095, 4096, 4097, 8193]))


@st.composite
def _payloads(draw):
    """A payload for the writer, and the same payload with each row iterator as a list.

    Long row lists cycle through a few drawn rows: drawing 8,193 rows
    from hypothesis itself exceeds its entropy budget.
    """
    streamed, listed = {}, {}
    for key in draw(st.lists(st.text(max_size=3), max_size=5)):
        if draw(st.booleans()):
            listed[key] = draw(_json_values)
            streamed[key] = listed[key]
        else:
            pool, count = draw(_row_pools), draw(_row_counts)
            listed[key] = [pool[i % len(pool)] for i in range(count)]
            streamed[key] = iter(listed[key])
    return streamed, listed


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=3), _payloads())
def test_stream_report_matches_json_dumps_on_any_payload(kind, payloads):
    streamed, listed = payloads
    got = "".join(io.stream_report(kind, streamed))
    expected = _json_dumps_report(kind, listed)
    if got != expected:  # not a bare assert: pytest would diff 8,193-row texts on every shrink step
        i = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"texts differ at {i}: {got[i - 40:i + 40]!r} != {expected[i - 40:i + 40]!r}")


@settings(max_examples=300)
@given(st.lists(st.one_of(st.lists(_json_scalars, max_size=4), st.tuples(_json_scalars, _json_scalars))))
def test_stream_report_joins_to_render_report_on_any_flat_items(items):
    pieces = io.stream_report("verify", {"bck": True, "order_pairs": iter(items)})
    expected = _json_dumps_report("verify", {"bck": True, "order_pairs": items})
    assert "".join(pieces) == expected
    assert io.render_report("verify", {"bck": True, "order_pairs": items}) == expected


# What `json.dumps` writes as the text in quotes, and what it escapes:
# the quote, the backslash, control characters, DEL and non-ASCII text.
_plain_strings = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'))
_escaped_strings = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f\x80\u00e9\u2028\U0001f600 a~'), min_size=1)
_AWKWARD = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x80", "\u00e9", "\u2028", "\U0001f600"]


@settings(max_examples=300)
@given(st.lists(st.lists(_plain_strings | _escaped_strings, max_size=4), min_size=1, max_size=8))
def test_string_rows_match_json_dumps(items):
    pieces = io.stream_report("codes", {"order": 2, "codes": iter(items)})
    assert "".join(pieces) == _json_dumps_report("codes", {"order": 2, "codes": items})


@pytest.mark.parametrize("awkward", [None, *_AWKWARD, "".join(_AWKWARD)])
def test_string_chunk_with_one_escaped_cell_matches_json_dumps(awkward):
    items = [["1111", "0110"], ["", " !#$%&'()*+,-./09:;<=>?@AZ[]^_`az{|}~"]] * 3000
    if awkward is not None:
        items[4500] = ["0011", f"x{awkward}y"]  # in the second chunk of 4,096 rows
    got = "".join(io.stream_report("codes", {"order": 4, "codes": iter(items)}))
    assert got == _json_dumps_report("codes", {"order": 4, "codes": items})


_pair_counts = st.one_of(st.integers(0, 20), st.sampled_from([4095, 4096, 4097, 8192, 8193]))


@settings(max_examples=60, deadline=None)
# a seeded Random, not st.randoms: 16,386 draws from st.randoms exceed
# hypothesis's entropy budget and fail its data_too_large health check
@given(_pair_counts, st.lists(st.integers(), min_size=2), st.integers(0, 2**32 - 1))
def test_stream_pairs_joins_to_render_report(count, pool, seed):
    rng = random.Random(seed)
    xs = [rng.choice(pool) for _ in range(count)]
    ys = [rng.choice(pool) for _ in range(count)]
    payload = {"order": count, "bck": True}
    pieces = list(io.stream_report("verify", {**payload, "order_pairs": zip(xs, ys)}))
    pairs = [[x, y] for x, y in zip(xs, ys)]
    expected = _json_dumps_report("verify", {**payload, "order_pairs": pairs})
    assert "".join(pieces) == expected
    assert io.render_report("verify", {**payload, "order_pairs": pairs}) == expected
    # the pairs' pieces: one per chunk of 4,096 and the closing bracket, or "[]"
    row_pieces = pieces[pieces.index(',\n  "order_pairs": ') + 1:-1]
    chunks = -(-count // 4096)
    assert len(row_pieces) == (chunks + 1 if count else 1)


def test_stream_report_draws_one_chunk_per_piece():
    drawn = written = 0
    row_pieces = []

    def rows():
        nonlocal drawn
        for i in range(2 * 4096 + 1):
            drawn += 1
            yield i, -i

    for piece in io.stream_report("verify", {"bck": True, "order_pairs": rows(), "after": [1]}):
        count = piece.count("\n    [")
        if count:
            row_pieces.append(count)
        written += count
        assert drawn == written  # every row drawn so far is in the pieces yielded
    assert row_pieces == [4096, 4096, 1]


_family_lines = (
    st.integers(1, 5)
    .flatmap(lambda n: st.sampled_from(list(bc.enumerate_triangular_codes(n))))
    .flatmap(lambda code: st.permutations(code.strings()))
)
_code_text = st.lists(
    st.one_of(
        st.text("01", min_size=1, max_size=5),
        st.text("01", max_size=5),
        st.text("01 \t#x2", max_size=6),
    ),
    max_size=8,
).flatmap(
    lambda lines: st.one_of(
        st.just(lines),
        st.just(lines + lines[:2]),
        _family_lines.map(lambda fam: fam + lines[:1]),
        _family_lines,
    )
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["construct", "lift"]),
    _code_text,
    st.sampled_from([[], ["--json"]]),
)
def test_construct_and_lift_keep_the_exit_contract(command, lines, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, *flags])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    else:
        assert out.getvalue()


def _table_text(t):
    return f"{len(t)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in t)


_small_tables = st.integers(1, 4).flatmap(
    lambda n: st.one_of(
        st.sampled_from([alg.table for alg in bc.enumerate_bck_algebras(n)]),
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n
        ),
    )
)
_algebra_text = st.one_of(
    _small_tables.map(_table_text),
    _small_tables.map(lambda t: f"{len(t) + 1}" + _table_text(t)[1:]),  # one row short
    st.text("0123 \n#x-", max_size=30),
    st.sampled_from(["1025\n", "-3\n", "2\n0 0\n1 7\n", "\n"]),
)
_function_text = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", ""]), st.sampled_from(["0", "1", "3", "9", "x", ""])
    ),
    max_size=4,
).map(lambda pairs: "".join(f"{label} {value}\n" for label, value in pairs))


def _run_cli(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    else:  # encode reports a non-BCK table (exit 1) on stderr only
        assert out.getvalue() or (code == 1 and err.getvalue())


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([["verify"], ["verify", "--json"], ["encode"], ["encode", "--json"]]),
    _algebra_text,
    st.one_of(st.none(), _function_text),
)
def test_verify_and_encode_keep_the_exit_contract(command, algebra, function):
    with tempfile.TemporaryDirectory() as tmp:
        alg_path = os.path.join(tmp, "alg.txt")
        with open(alg_path, "w", encoding="utf-8") as fh:
            fh.write(algebra)
        argv = [command[0], alg_path, *command[1:]]
        if command[0] == "encode" and function is not None:
            fn_path = os.path.join(tmp, "fn.txt")
            with open(fn_path, "w", encoding="utf-8") as fh:
                fh.write(function)
            argv += ["--function", fn_path]
        _run_cli(argv)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["--codes", "--algebras", "--family"]),
    st.sampled_from([-2, 0, 1, 2, 3, 4, 5, 9, 12]),
    st.sampled_from([[], ["--max-order", "-1"], ["--max-order", "4"], ["--max-order", "12"]]),
    st.sampled_from([[], ["--json"]]),
)
def test_enumerate_keeps_the_exit_contract(mode, order, max_order, flags):
    # orders 6-8 are left out: they are valid and slow (order 8 --codes
    # prints 2,097,152 codes); orders 9 and 12 are above every bound
    _run_cli(["enumerate", mode, "--order", str(order), *max_order, *flags])


def test_cli_requires_a_mode():
    with pytest.raises(SystemExit):
        main(["enumerate", "--order", "3"])


def test_cli_json_is_valid_json(tmp_path, capsys):
    """Every subcommand's --json report is canonical: it re-indents to itself."""
    alg = _write(tmp_path, "alg.txt", ALG4_TEXT)
    bad = _write(tmp_path, "bad.txt", "2\n0 0\n1 1\n")
    fn = _write(tmp_path, "fn.txt", "p 1\nq 3\n")
    code = _write(tmp_path, "code.txt", "1111\n0110\n0010\n0001\n")
    inexact = _write(tmp_path, "inexact.txt", "\n".join(rd.ROUNDTRIP_COUNTEREXAMPLE) + "\n")
    runs = [
        (["verify", alg], 0),
        (["verify", bad], 1),
        (["encode", alg], 0),
        (["encode", alg, "--function", fn], 0),
        (["construct", code], 0),
        (["construct", inexact], 1),
        (["lift", code], 0),
        (["enumerate", "--order", "4", "--codes"], 0),
        (["enumerate", "--order", "4", "--algebras"], 0),
        (["enumerate", "--order", "4", "--family"], 0),
    ]
    for argv, status in runs:
        assert main([*argv, "--json"]) == status, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_python_m_bckcodes_prints_the_readme_output():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("$ bckcodes enumerate --order 3 --algebras") + 1
    stop = start
    while not lines[stop].startswith(("$ ", "```")):
        stop += 1
    expected = "\n".join(lines[start:stop]) + "\n"

    src = str(Path(bc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bckcodes", "enumerate", "--order", "3", "--algebras"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    def broken(n):
        raise bc.InternalInvariantError("family maximum is not the staircase code")

    monkeypatch.setattr(cli, "family_algebra", broken)
    assert main(["enumerate", "--family", "--order", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: family maximum is not the staircase code\n"
    assert captured.out == ""


def _census_search_yields_a_non_bck_table(monkeypatch, tmp_path):
    monkeypatch.setattr(_kernels, "bck_candidates", lambda n: iter([((0, 0), (1, 1))]))
    return ["enumerate", "--algebras", "--order", "2"]


def _membership_check_passes_a_code_without_all_ones(monkeypatch, tmp_path):
    monkeypatch.setattr(bc.codes, "_triangular_defect", lambda values, n: None)
    return ["construct", _write(tmp_path, "code.txt", "10\n01\n")]


def _word_order_loses_the_lifted_columns(monkeypatch, tmp_path):
    def identity(code):
        n = code.length + 1
        # the identity matrix: the last m columns hold only unit words
        return bc.BlockCode.of([1 << (n - 1 - x) for x in range(n)], n)

    monkeypatch.setattr(lift, "ensure_all_ones", identity)
    return ["lift", _write(tmp_path, "code.txt", "110\n011\n101\n")]


def _family_enumeration_misses_the_staircase(monkeypatch, tmp_path):
    members = lift.enumerate_triangular_codes
    staircase = bc.staircase_code(3).values
    monkeypatch.setattr(
        lift,
        "enumerate_triangular_codes",
        lambda n: (c for c in members(n) if bc.lex_sort_desc(c).values != staircase),
    )
    return ["enumerate", "--family", "--order", "3"]


def _family_enumeration_tops_the_staircase(monkeypatch, tmp_path):
    # 111 011 010 sorts above the staircase 111 011 001 and is
    # incomparable with it: at row 2 neither word lies inside the other
    top = bc.BlockCode.of((0b111, 0b011, 0b010), 3)
    members = lift.enumerate_triangular_codes
    monkeypatch.setattr(lift, "enumerate_triangular_codes", lambda n: [*members(n), top])
    monkeypatch.setattr(lift, "staircase_code", lambda n: top)
    return ["enumerate", "--family", "--order", "3"]


@pytest.mark.parametrize("breach, message", [
    (_census_search_yields_a_non_bck_table, "search yielded a non-BCK table ((0, 0), (1, 1))"),
    (_membership_check_passes_a_code_without_all_ones, "all-ones word is not the order minimum"),
    (_word_order_loses_the_lifted_columns, "lifted code lost 3 input codeword(s)"),
    (_family_enumeration_misses_the_staircase, "family maximum is not the staircase code"),
    (_family_enumeration_tops_the_staircase, "staircase code is not the order minimum"),
], ids=["census", "construct", "lift", "family-maximum", "family-minimum"])
def test_each_invariant_breach_exits_3(breach, message, monkeypatch, tmp_path, capsys):
    # each raise sits behind a theorem, so the layer above it is broken
    argv = breach(monkeypatch, tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {message}\n"
    assert captured.out == ""


def test_import_bckcodes_loads_the_text_formats():
    # `bc.io.render_algebra(...)` right after `import bckcodes as bc`, as in the README
    src = str(Path(bc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import bckcodes as bc; bc.io.render_algebra"],
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0
