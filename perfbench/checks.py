"""Output checks for the benchmark workloads, computed without bckcodes.

Each `check_*` function reads what one invocation produced, recomputes
the expected answer from first principles (brute force, bit arithmetic
or the orbit-counting identity) and records every comparison in a
`Checks` tally, so a run can report failed checks over checks made.
"""

from __future__ import annotations

import json
from itertools import permutations

import numpy as np

CENSUS_5 = {
    "total_tables": 1735,
    "iso_classes": 88,
    "similarity_classes": 219,
    "label_canonical_classes": 16,
}
EXACT_CODES_7 = 4824


class Checks:
    """Tally of output checks; keeps the first few failures for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def is_bck(t: list[list[int]]) -> bool:
    n = len(t)
    r = range(n)
    return (
        all(t[t[t[x][y]][t[x][z]]][t[z][y]] == 0 for x in r for y in r for z in r)
        and all(t[t[x][t[x][y]]][y] == 0 for x in r for y in r)
        and all(t[x][x] == 0 and t[0][x] == 0 for x in r)
        and all(x == y or t[x][y] or t[y][x] for x in r for y in r)
    )


def _relabelings(t: list[list[int]]):
    n = len(t)
    for tail in permutations(range(1, n)):
        h = (0,) + tail
        image = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                image[h[x]][h[y]] = h[t[x][y]]
        yield image


def check_census_5(checks: Checks, stdout: str) -> None:
    """Frozen totals, and every class against brute-force automorphisms.

    A class of an order-5 algebra A holds 4!/|Aut(A)| labeled tables, so
    the class sizes must match and sum to the labeled total.
    """
    report = json.loads(stdout)
    for key, want in CENSUS_5.items():
        checks.check(report.get(key) == want, f"{key} = {report.get(key)}, want {want}")
    checks.check(report.get("bound") == 2 ** 6, "bound is not 2^((n-1)(n-2)/2)")
    checks.check(report.get("bound_check") is True, "bound check did not pass")
    classes = report.get("classes", [])
    checks.check(len(classes) == CENSUS_5["iso_classes"], "class inventory size")

    orbit_sum = 0
    canonical_forms = set()
    for k, entry in enumerate(classes):
        table = entry["table"]
        checks.check(is_bck(table), f"class {k} representative is not BCK")
        images = list(_relabelings(table))
        automorphisms = sum(1 for image in images if image == table)
        orbit = len(images) // automorphisms
        orbit_sum += orbit
        checks.check(entry["size"] == orbit, f"class {k} size {entry['size']} != 4!/|Aut| = {orbit}")
        canonical_forms.add(min(tuple(map(tuple, image)) for image in images))
    checks.check(orbit_sum == CENSUS_5["total_tables"], f"sum of 4!/|Aut| is {orbit_sum}")
    checks.check(len(canonical_forms) == len(classes), "two representatives are isomorphic")


def pointwise_table(perm: np.ndarray) -> np.ndarray:
    """Table of f*g = f & ~g on 2**k bit strings, relabeled by perm (perm[0] = 0)."""
    f = np.arange(len(perm))
    table = np.empty((len(perm), len(perm)), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[f[:, None] & ~f[None, :]]
    return table


def check_verify_1024(checks: Checks, stdout: str, perm: np.ndarray) -> None:
    """All five axioms hold, and x <= y is bit-subset inclusion after relabeling."""
    report = json.loads(stdout)
    checks.check(report.get("order") == len(perm), "order")
    checks.check(all(a["holds"] for a in report.get("axioms", [])), "an axiom fails")
    for key in ("bck", "bci"):
        checks.check(report.get(key) is True, f"{key} is not true")
    for key in ("commutative", "implicative"):
        checks.check((report.get(key) or {}).get("holds") is True, f"{key} does not hold")

    k = len(perm).bit_length() - 1
    f = np.arange(len(perm))
    subset = (f[:, None] & ~f[None, :]) == 0
    np.fill_diagonal(subset, False)
    x, y = np.nonzero(subset)
    want = set(zip(perm[x].tolist(), perm[y].tolist()))
    pairs = report.get("order_pairs") or []
    got = {(a, b) for a, b in pairs}
    checks.check(len(want) == 3**k - 2**k, "expected pair count is not 3^k - 2^k")
    checks.check(len(pairs) == len(got) == len(want), f"{len(pairs)} order pairs, want {len(want)}")
    checks.check(got == want, "order pairs differ from bit-subset inclusion")


def family_members(n: int) -> np.ndarray:
    """Matrices of the order-n triangular family as row integers, descending.

    Row 0 is all ones, row i has its leading 1 on the diagonal and free
    bits to its right, so each member's rows are already lex-descending.
    """
    free = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n)]
    members = []
    for pattern in range(2 ** len(free)):
        rows = [(1 << n) - 1] + [1 << (n - 1 - i) for i in range(1, n)]
        for bit, (i, j) in enumerate(free):
            if pattern >> bit & 1:
                rows[i] |= 1 << (n - 1 - j)
        members.append(tuple(rows))
    members.sort(reverse=True)
    return np.array(members, dtype=np.int64)


def family_order(members: np.ndarray) -> np.ndarray:
    """x <= y when, at the first differing row, y's row bits lie in x's."""
    size = len(members)
    differ = members[:, None, :] != members[None, :, :]
    first = differ.argmax(axis=2)
    rows = np.arange(size)
    a = members[rows[:, None], first]
    b = members[rows[None, :], first]
    return ((b & ~a) == 0) | ~differ.any(axis=2)


def check_family_6(checks: Checks, stdout: str) -> None:
    """The table and code equal the poset algebra of the 1,024 family matrices."""
    leq = family_order(family_members(6))
    size = len(leq)
    want_table = np.where(leq, 0, np.arange(size)[:, None])
    want_code = sorted(("".join("1" if v else "0" for v in row) for row in leq), reverse=True)

    data = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    code_at = stdout.find("# canonical code:\n")
    code = stdout[code_at:].splitlines()[1:] if code_at >= 0 else []
    checks.check(data[:1] == [str(size)], "order line")
    rows = data[1:]
    checks.check(len(rows) == size, f"{len(rows)} table rows, want {size}")
    for x in range(size):
        got = np.array(rows[x].split(), dtype=np.int64) if x < len(rows) else None
        checks.check(got is not None and np.array_equal(got, want_table[x]), f"table row {x}")
    checks.check(len(code) == size, f"{len(code)} code words, want {size}")
    for k in range(size):
        checks.check(k < len(code) and code[k] == f"# {want_code[k]}", f"code word {k}")


def triangular_codes(n: int) -> set[str]:
    """Every order-n triangular-family code, as its rows concatenated."""
    return {
        "".join(format(row, f"0{n}b") for row in member)
        for member in family_members(n).tolist()
    }


def check_codes_7(checks: Checks, result: dict, sources: list[list[str]]) -> None:
    """Round trips agree with self-description; lifts keep their source words."""
    n = 7
    trips = result["roundtrips"]
    packed = [p for p, _, _ in trips]
    checks.check(len(packed) == len(set(packed)) == 2**15, f"{len(packed)} codes, want 32768")
    checks.check(set(packed) == triangular_codes(n), "codes differ from the order-7 family")
    exact_count = 0
    for k, (p, exact, self_describing) in enumerate(trips):
        words = [int(p[i * n : i * n + n], 2) for i in range(n)]
        words.sort(reverse=True)
        # word k <= word j iff word j's bits lie in word k's
        described = all(
            bool(wk >> (n - 1 - j) & 1) == (words[j] & ~wk == 0)
            for wk in words
            for j in range(n)
        )
        checks.check(exact == self_describing == described, f"round trip {k}")
        exact_count += bool(exact)
    checks.check(exact_count == EXACT_CODES_7, f"{exact_count} exact codes, want {EXACT_CODES_7}")

    lifts = result["lifts"]
    checks.check(len(lifts) == len(sources), "lift count")
    for k, (source, lifted) in enumerate(zip(sources, lifts)):
        ok = set(source) <= set(lifted) and all(len(w) == len(source[0]) for w in lifted)
        checks.check(ok, f"lift {k} lost a source word")
