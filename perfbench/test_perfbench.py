"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

The traced census-5 test makes two full traced invocations (about 40 s).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import run
import tracing

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0), (1, -1, 11.0, 12.0)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    summary = tracer.summary()
    assert summary["metrics"]["kernels.bck_candidates.self_s"] == 7.0
    assert summary["metrics"]["kernels.axiom_witnesses.self_s"] == 4.0
    assert summary["covered_s"] == 11.0


def test_numpy_unit_is_the_axiom_1_gather():
    acc = reference.numpy_unit()
    table = reference._numpy_arrays()[0]
    for x in range(reference._ROWS):
        inner = table[table[x][:, None], table[x][None, :]]
        acc -= int(np.count_nonzero(table[inner, table.T]))
    assert acc == 0


def test_sampler_ticks_and_rescale():
    sampler = reference.Sampler("python")
    sampler.arm()
    end = time.monotonic() + 3 * reference.INTERVAL_S
    while time.monotonic() < end:
        pass
    ref = sampler.disarm()
    assert ref["ref_units"] >= 1 and ref["ref_s"] > 0 and ref["ref_start_s"] > 0
    assert reference.rescale(2.0, "python", 4, 8 * reference.UNIT_S["python"]) == 1.0


def _verify_report(perm):
    table = checks.pointwise_table(perm)
    pairs = [[x, y] for x in range(len(perm)) for y in range(len(perm)) if x != y and table[x][y] == 0]
    return {
        "order": len(perm),
        "axioms": [{"axiom": a, "holds": True} for a in range(1, 6)],
        "bci": True,
        "bck": True,
        "commutative": {"holds": True},
        "implicative": {"holds": True},
        "order_pairs": pairs,
    }


def test_verify_check_catches_a_missing_pair():
    perm = np.array([0, 5, 3, 7, 1, 2, 6, 4])
    report = _verify_report(perm)
    good = checks.Checks()
    checks.check_verify_1024(good, json.dumps(report), perm)
    assert good.attempted > 0 and good.failed == 0
    report["order_pairs"].pop()
    bad = checks.Checks()
    checks.check_verify_1024(bad, json.dumps(report), perm)
    assert bad.failed > 0


def test_bck_brute_force_rejects_a_non_bck_table():
    assert checks.is_bck([[0, 0], [1, 0]])
    assert not checks.is_bck([[0, 0], [0, 0]])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_traced_counts_repeat_exactly():
    run.WORK.mkdir(exist_ok=True)
    workload = run.Workload("census-5", seed=1)
    counts = []
    for k in range(2):
        inv = workload.invoke(time.monotonic() + run.RUN_LIMIT_S, trace=True)
        assert inv["exit"] == 0 and inv["checks"].failed == 0
        metrics = inv["summary"]["metrics"]
        counts.append({key: v for key, v in metrics.items() if not key.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.bck_candidates.tables"] == 1735
    assert counts[0]["algebra.are_isomorphic.calls"] == 11259
    assert counts[0]["algebra.check_axioms.calls"] == 5582
    assert counts[0]["algebra.check_axioms.cache_hits"] == 3847
