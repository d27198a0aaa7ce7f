"""numpy is imported by the first array scan, not with the package.

The test process has numpy loaded already, so each check runs in a fresh
interpreter.
"""

import contextlib
import io as stdio
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bckcodes as bc
from bckcodes import _kernels, io
from bckcodes.cli import main
import reference_data as rd
from test_kernels import _NOT_TRANSITIVE, _chain, _exchange_without_monotonicity, _times_indicator

_SRC = str(Path(bc.__file__).resolve().parent.parent)


def _fresh(script, *args):
    """Run ``script`` in a new interpreter that starts without numpy; its stdout."""
    script = "import sys\nassert 'numpy' not in sys.modules\n" + script
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_and_the_commands_without_an_array_scan_leave_numpy_unloaded(tmp_path):
    alg = tmp_path / "alg.txt"
    alg.write_text(io.render_algebra(bc.CayleyAlgebra(rd.ALG4_COMMUTATIVE)))
    code = tmp_path / "code.txt"
    code.write_text("".join(w + "\n" for w in rd.CODE4))
    lift = tmp_path / "lift.txt"
    lift.write_text("".join(w + "\n" for w in rd.LIFT_INPUT))
    runs = [
        ["enumerate", "--codes", "--order", "5"],
        ["enumerate", "--algebras", "--order", "4"],
        ["enumerate", "--family", "--order", "4", "--json"],
        ["encode", str(alg)],
        ["encode", "--json", str(alg)],
        ["construct", str(code)],
        ["lift", "--json", str(lift)],
    ]
    out = _fresh(
        "import contextlib, io\n"
        "import bckcodes\n"
        "assert 'numpy' not in sys.modules\n"
        "from bckcodes.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "False\n"


def _kernel_cases():
    bck32 = bc.pointwise_function_algebra(5).table
    not_bck32 = tuple(map(tuple, _times_indicator(_NOT_TRANSITIVE, 3)))
    no_monotone32 = tuple(map(tuple, _exchange_without_monotonicity()))
    chain5 = _chain(5)
    return [
        ("axiom_witnesses", bck32),
        ("axiom_witnesses", not_bck32),
        ("axiom_witnesses", no_monotone32),
        ("commutative_witness", rd.ALG4_FROM_CODE),
        ("commutative_witness", chain5),
        ("implicative_witness", chain5),
        ("implicative_witness", rd.ALG4_COMMUTATIVE),
        ("order_pairs", rd.ALG4_FROM_CODE),
        ("order_pairs", bck32),
    ]


@pytest.mark.parametrize("name, table", _kernel_cases())
def test_each_array_entry_point_imports_numpy_on_first_use(name, table):
    out = _fresh(
        "from bckcodes import _kernels\n"
        f"result = _kernels.{name}({table!r})\n"
        "assert 'numpy' in sys.modules\n"
        "print(repr(result))\n"
    )
    assert out == repr(getattr(_kernels, name)(table)) + "\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_verify_as_the_first_array_scan_prints_what_it_printed(tmp_path, flags):
    path = tmp_path / "alg.txt"
    path.write_text(io.render_algebra(bc.CayleyAlgebra(rd.ALG4_COMMUTATIVE)))
    argv = ["verify", *flags, str(path)]
    out = _fresh(
        "import contextlib, io\n"
        "from bckcodes.cli import main\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    assert main({argv!r}) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print(buf.getvalue(), end='')\n"
    )
    bc.check_axioms.cache_clear()
    with contextlib.redirect_stdout(stdio.StringIO()) as expected:
        assert main(argv) == 0
    assert out == expected.getvalue()
