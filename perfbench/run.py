"""bckcodes benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root (the program is imported from ./src):

    python3 perfbench/run.py --workload census-5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Every invocation of a workload is a fresh Python process, started one at
a time (closed loop, one client), with numpy's BLAS pool held to one
thread.  While it works, the child samples the reference loop of
`reference.py`, and its times are rescaled to the loop's unloaded speed.  A run
repeats invocations until the next one would end after --seconds (at
least one), checks every output with `checks`, and prints each metric by
name, unit and sample count, then one JSON line.  With --trace 1 it
makes one untraced and one traced invocation and reports per-layer
counts and self time instead.  Workload inputs come from
--seed; census-5 and family-6 take none.  See perfbench/README.md for
why each workload is here and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from reference import START_UNITS, rescale  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170
BLAS_THREADS = "1"

# items: the unit of work behind items_per_s, as (count, what).
# reference: the loop of reference.py that resembles the dominant layer.
WORKLOADS = {
    "census-5": {
        "argv": ["enumerate", "--algebras", "--order", "5", "--json"],
        "items": (1735, "labeled tables"),
        "reference": "python",
    },
    "family-6": {
        "argv": ["enumerate", "--family", "--order", "6"],
        "items": (1024, "family members"),
        "reference": "numpy",
    },
    "verify-1024": {
        "argv": ["verify", "--json"],
        "items": (1024 * 1024, "table cells"),
        "reference": "numpy",
    },
    "codes-7": {"items": (2**15 + 2000, "round trips and lifts"), "reference": "python"},
}
LIFT_CODES = 2000


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv: list[str], out: Path, deadline: float) -> dict:
    """Run one child to completion; wall clock and peak RSS seen from outside.

    The child writes stdout, stderr and its summary to `out` with the
    suffixes .out, .err and .summary.json; `argv` must end with the
    child's summary path.  Where the child sampled the reference loop,
    its work time and set-up time are rescaled to the loop's unloaded
    speed.  The
    child is killed at the monotonic `deadline`, so a run that hangs
    still ends, with failed checks.
    """
    stdout_path, stderr_path, summary_path = (
        out.with_suffix(ext) for ext in (".out", ".err", ".summary.json")
    )
    for path in (stdout_path, summary_path):
        path.unlink(missing_ok=True)
    argv = argv + [str(summary_path)]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    mark = stderr_path.read_text(encoding="utf-8", errors="replace").split("\n", 1)[0].split()
    setup = float(mark[1]) - start if mark[:1] == ["perfbench-setup"] else None
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        summary = None
    inv = {
        "exit": proc.returncode,
        "start": start,
        "wall_s": wall,
        "backend": mark[2] if setup is not None else None,
        "rss_mb": usage.ru_maxrss / 1024,
        "summary": summary,
    }
    if summary and "ref_start_s" in summary and setup is not None:
        inv["setup_s"] = rescale(setup, "python", START_UNITS, summary["ref_start_s"])
        if summary["ref_units"]:
            work = wall - summary["ref_start_s"] - summary["ref_s"]
            inv["work_s"] = rescale(work, summary["ref_kind"], summary["ref_units"], summary["ref_s"])
    return inv


class Workload:
    """Inputs of one workload for one seed, and how to check its outputs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = WORKLOADS[name]
        self.argv = list(self.spec.get("argv", []))
        rng = random.Random(seed)
        if name == "verify-1024":
            tail = list(range(1, 1024))
            rng.shuffle(tail)
            self.perm = np.array([0] + tail)
            table = checks.pointwise_table(self.perm)
            path = WORK / f"verify-1024-seed{seed}.txt"
            lines = ["1024"] + [" ".join(map(str, row)) for row in table.tolist()]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.argv.append(str(path))
        elif name == "codes-7":
            self.sources = []
            for _ in range(LIFT_CODES):
                length = rng.randint(2, 8)
                count = rng.randint(2, min(8, 2**length))
                words = rng.sample(range(2**length), count)
                self.sources.append([format(w, f"0{length}b") for w in words])
            self.lift_path = WORK / f"codes-7-seed{seed}-lifts.txt"
            text = "".join(" ".join(s) + "\n" for s in self.sources)
            self.lift_path.write_text(text, encoding="utf-8")

    def invoke(self, deadline: float, trace: bool = False) -> dict:
        """One invocation, traced or sampling the reference loop, with its checks."""
        out = WORK / self.name
        stdout, stderr, result_path = (out.with_suffix(ext) for ext in (".out", ".err", ".result.json"))
        argv = [sys.executable, str(HERE / "child.py")]
        probe = "trace" if trace else self.spec["reference"]
        if self.name == "codes-7":
            argv += ["codes", probe, str(self.lift_path), str(result_path)]
            result_path.unlink(missing_ok=True)
        else:
            argv += ["cli", probe] + self.argv
        inv = spawn(argv, out, deadline)

        tally = checks.Checks()
        tally.check(inv["exit"] == 0, f"exit code {inv['exit']}")
        if trace:
            tally.check(inv["summary"] is not None, "no trace summary from the child")
        else:
            tally.check("work_s" in inv, "no reference samples from the child")
        try:
            if self.name == "codes-7":
                result = json.loads(result_path.read_text(encoding="utf-8"))
                checks.check_codes_7(tally, result, self.sources)
            else:
                text = stdout.read_text(encoding="utf-8")
                if self.name == "census-5":
                    checks.check_census_5(tally, text)
                elif self.name == "family-6":
                    checks.check_family_6(tally, text)
                else:
                    checks.check_verify_1024(tally, text, self.perm)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            tally.check(False, f"unreadable output: {exc!r}")
        if tally.failed:
            err = stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
            tally.failures.append(f"stderr tail: {err}")
        inv["checks"] = tally
        if "work_s" in inv:
            inv["items_per_s"] = self.spec["items"][0] / inv["work_s"]
        return inv


def setup_samples(count: int, deadline: float) -> list[float]:
    """Process start until `import bckcodes` returns, in fresh import-only processes."""
    argv = [sys.executable, str(HERE / "child.py"), "setup", "python"]
    samples = []
    for _ in range(count):
        inv = spawn(argv, WORK / "setup", deadline)
        if inv["exit"] != 0 or "setup_s" not in inv:
            raise RuntimeError(f"import-only process failed with exit code {inv['exit']}")
        samples.append(inv["setup_s"])
    return samples


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, trace: int, backend: str | None, samples: dict) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "backend": backend,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "trace": trace,
        "samples": samples,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("_ratio") else "count"


def run(name: str, seed: int, seconds: int, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    workload = Workload(name, seed)
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    setups = setup_samples(SETUP_SAMPLES, deadline)
    invocations = [workload.invoke(deadline)]
    traced = None
    if trace:
        traced = workload.invoke(deadline, trace=True)
    else:
        while time.monotonic() - began + invocations[-1]["wall_s"] <= seconds:
            invocations.append(workload.invoke(deadline))
    everything = invocations + ([traced] if traced else [])

    setups += [inv["setup_s"] for inv in invocations if "setup_s" in inv]
    attempted = sum(inv["checks"].attempted for inv in everything)
    failed = sum(inv["checks"].failed for inv in everything)
    walls = [inv["wall_s"] for inv in invocations]
    # A child that wrote no summary has failed its checks; its raw wall clock stands in.
    works = [inv.get("work_s", inv["wall_s"]) for inv in invocations]
    samples = {"invocations": len(invocations), "setup": len(setups), "traced": len(everything) - len(invocations)}
    backend = next((inv["backend"] for inv in everything if inv["backend"]), None)
    stamp = provenance(seed, trace, backend, samples)
    count, what = WORKLOADS[name]["items"]

    lines = [f"workload {name}: seed {seed}, trace {trace}, {seconds} s per run"]
    lines.append("provenance " + json.dumps(stamp))
    if traced:
        summary = traced["summary"] or {"metrics": {}, "end": traced["start"], "covered_s": 0.0, "spans": 0}
        untraced = invocations[0]
        ref = untraced["summary"] or {"ref_s": 0.0, "ref_start_s": 0.0}
        untraced_s = untraced["wall_s"] - ref["ref_s"] - ref["ref_start_s"]
        traced_s = summary["end"] - traced["start"]
        metrics = {key: metric(v, layer_unit(key)) for key, v in summary["metrics"].items()}
        metrics["trace.overhead_s"] = metric(traced["wall_s"] - untraced_s, "s")
        metrics["trace.coverage"] = metric(summary["covered_s"] / traced_s if traced_s > 0 else 0.0, "ratio")
        metrics["trace.spans"] = metric(summary["spans"], "count")
        lines.append(
            f"traced wall clock {traced['wall_s']:.4f} s, untraced {untraced_s:.4f} s "
            f"without its reference samples; {summary['spans']} spans cover "
            f"{summary['covered_s']:.4f} s of {traced_s:.4f} s"
        )
        lines += [f"{key}: {m['value']:.6g} {m['unit']} (one traced run)" for key, m in metrics.items()]
    else:
        metrics = {
            "work_s": metric(statistics.median(works), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(inv["rss_mb"] for inv in invocations), "MB"),
            "items_per_s": metric(statistics.median(count / w for w in works), "1/s"),
        }
        for key, m in metrics.items():
            n = len(setups) if key == "setup_s" else len(works)
            note = f", {count} {what} per invocation" if key == "items_per_s" else ""
            lines.append(f"{key}: {m['value']:.6g} {m['unit']} (median of {n}{note})")
        lines.append(f"raw wall clock: {statistics.median(walls):.6g} s (median of {len(walls)}, not rescaled)")
    lines.append(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} output checks failed)")
    lines += [f"  check failed: {f}" for inv in everything for f in inv["checks"].failures]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    refs = [inv["summary"] for inv in invocations if inv["summary"]]
    record = {
        "workload": name, "provenance": stamp, "walls_s": walls, "works_s": works,
        "setups_s": setups, "refs": refs, **result,
    }
    path = WORK / f"BENCH_{name}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"lines": lines, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bckcodes" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the repository root; ./src/bckcodes is missing\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        out = run(name, args.seed, args.seconds, args.trace)
        print("\n".join(out["lines"]), flush=True)
        print(json.dumps(out["result"]), flush=True)
        ok = ok and out["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
