"""Self-test of the benchmark: ``python -m pytest perfbench`` from the repo root.

Feeds every correctness check a corrupted answer (one flipped vector
entry, a shifted eigenvalue, an out-of-range part, ...) and sees it
counted as failed, then runs both workloads end to end on tiny
inputs (``--small``) in both modes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import pipeline  # noqa: E402
from common import Checks, load_matrix  # noqa: E402


def _counted_failed(ok: bool) -> bool:
    ck = Checks()
    ck.check(ok, "corrupted answer")
    return ck.attempted == 1 and ck.failed == 1


@pytest.fixture(scope="module")
def A():
    return load_matrix("hollywood-2009", small=True)


def test_matvec_check_catches_one_flipped_entry(A):
    x = np.random.default_rng(0).standard_normal(A.shape[0])
    y = A @ x
    assert checks.matvec_agrees(A, x, y)
    y[7] = -y[7] if y[7] else 1.0
    assert _counted_failed(checks.matvec_agrees(A, x, y))
    X = np.column_stack([x, 2 * x])
    Y = A @ X
    Y[3, 1] += 1e-6 * abs(Y[3, 1]) + 1e-9
    assert _counted_failed(checks.matvec_agrees(A, X, Y))


def test_partition_checks_catch_out_of_range_part_and_wrong_cut(A):
    from repro.partitioning import partition_matrix

    p = 8
    for method in ("gp", "hp"):
        res = partition_matrix(A, p, method=method, seed=0)
        ck = Checks()
        pipeline._check_partition(ck, A, res, p, method)
        assert ck.failed == 0, ck.failures

        part = res.part.copy()
        part[0] = p  # out of range
        assert _counted_failed(checks.rpart_valid(part, A.shape[0], p))
        part = res.part.copy()
        part[part == 3] = 2  # part 3 left empty
        assert _counted_failed(checks.rpart_valid(part, A.shape[0], p))

        ck = Checks()
        pipeline._check_partition(
            ck, A, dataclasses.replace(res, edgecut=res.edgecut + 1), p, method)
        assert ck.failed == 1 and ck.failures[0].startswith(f"{method}: reported cut")


def test_balance_check_catches_piled_up_part(A):
    from repro.partitioning import partition_matrix

    p = 8
    res = partition_matrix(A, p, method="gp", seed=0)
    piled = res.part.copy()
    piled[: A.shape[0] // 2] = 0
    # the cut is made to match, so only the balance check can fail
    bad = dataclasses.replace(res, part=piled, edgecut=checks.graph_edgecut(A, piled))
    ck = Checks()
    pipeline._check_partition(ck, A, bad, p, "gp")
    assert (ck.attempted, ck.failed) == (3, 1)
    assert "imbalance" in ck.failures[0]


def test_message_bound_catches_excess():
    assert checks.max_messages_ok(14, True, (8, 8))
    assert _counted_failed(checks.max_messages_ok(15, True, (8, 8)))
    assert checks.max_messages_ok(63, False, (64, 1))
    assert _counted_failed(checks.max_messages_ok(64, False, (64, 1)))


def test_eigen_checks_catch_a_shifted_eigenvalue(A):
    import scipy.sparse.linalg as sla

    L = pipeline.reference_laplacian(A)
    vals, vecs = sla.eigsh(L, k=4, which="LA", tol=1e-10)
    tol = 1e-3
    assert checks.eigenvalues_agree(vals, vals, tol)
    assert checks.residuals_ok(L, vals, vecs, tol)
    assert checks.in_laplacian_range(vals)
    shifted = vals.copy()
    shifted[1] += 0.01
    assert _counted_failed(checks.eigenvalues_agree(shifted, vals, tol))
    assert _counted_failed(checks.residuals_ok(L, shifted, vecs, tol))
    shifted[0] = 2.5
    assert _counted_failed(checks.in_laplacian_range(shifted))


def test_served_reply_checks_catch_a_flipped_entry(A):
    x = np.random.default_rng(1).standard_normal(A.shape[0])
    first = A @ x
    assert checks.matvec_agrees(A, x, first)
    assert checks.same_reply({"ok": True}, first.copy(), first)
    flipped = first.copy()
    flipped[5] = -flipped[5] if flipped[5] else 1.0
    assert _counted_failed(checks.matvec_agrees(A, x, flipped))  # first reply vs scipy
    assert _counted_failed(checks.same_reply({"ok": True}, flipped, first))  # later reply
    assert _counted_failed(checks.same_reply({"ok": False, "error": "shed"}, None, first))


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


WORKLOADS = ("gp", "hp")


@pytest.fixture(scope="module")
def small_runs():
    """Every workload in both modes, on tiny inputs: (workload, trace) -> process."""
    return {
        (w, t): _run("--workload", w, "--seed", "3", "--seconds", "1", "--trace", t, "--small")
        for w in WORKLOADS for t in ("0", "1")
    }


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_mode_end_to_end(small_runs, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = _result(small_runs[workload, trace])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    for name, m in res["metrics"].items():
        assert declared[name] == m["unit"], name
        assert m["value"] > 0, name
    assert not (ROOT / ".perfbench_work").exists()


def test_every_workload_reports_every_declared_metric(small_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        for w in WORKLOADS:
            reported = set(_result(small_runs[w, trace])["metrics"])
            assert reported == {m["name"] for m in spec[key]}, (w, trace)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "gp", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_sparse_helpers_match_repro_on_a_triangle():
    from repro.partitioning import PartGraph, Hypergraph

    A = sp.csr_matrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float))
    part = np.array([0, 0, 1])
    assert checks.graph_edgecut(A, part) == PartGraph.from_matrix(A).edgecut(part) == 2
    hg = Hypergraph.from_matrix_column_net(A)
    assert checks.hypergraph_cut(A, part, 2) == hg.cut_connectivity_minus_one(part, 2)
