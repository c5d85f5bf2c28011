"""Tests of the benchmark itself (not of linpole).

    python3 -m pytest bench/tests -q        (from the repository root)

Every oracle must reject a deliberately corrupted output, two traced runs
must give identical counts, and the command must refuse to run without the
program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import linpole as lp  # noqa: E402
import oracles as O  # noqa: E402
import workloads  # noqa: E402


def _corrupt(kind, out):
    """A wrong output of the same type as `out`."""
    if kind == "decompose":
        return lp.Decomposition(out.terms, out.holomorphic + 1)
    if kind == "dependence":
        return lp.Subspace(out.basis[:-1])
    if kind == "p_residue":
        if out.terms:
            return lp.Decomposition([lp.PolarTerm(t.numerator * 2, t.simplex)
                                     for t in out.terms], out.holomorphic)
        return lp.Decomposition((), lp.Polynomial.constant(1))
    if kind == "ms_eval":
        return out + 1
    if kind == "is_local_pair":
        return not out
    if kind in ("expand_product", "flatten_forest"):
        (s, c), rest = out[0], out[1:]
        return [(s, c + 1)] + rest
    if kind == "lyndon_decompose":
        first = next(iter(out))
        return {**out, first: out[first] + 1}
    if kind == "locality_lyndon_generators":
        return out[:-1]
    if kind == "galois_from_evaluator":
        return lp.GaloisTransform({g: c + Fraction(1, 10 ** 6) for g, c in out.shifts.items()})
    if kind == "zeta_eval":
        return out[0] + Fraction(1, 10 ** 6), out[1]
    if kind == "apply_transform":
        return lp.GermCombo(list(out.terms) + [(lp.Polynomial.constant(1), ())])
    if kind == "check_factorization":
        name, lhs, rhs, diff, _ok = out.entries[0]
        return type(out)([(name, lhs + 1, rhs, diff + 1, False)] + out.entries[1:])
    if kind == "iter_eval":
        return out + 1
    raise AssertionError(f"no corruption for {kind}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_accept_true_and_reject_corrupted_outputs(workload):
    rounds = 2
    inputs = workloads.generate(workload, 5, rounds)
    rounds = workloads.plan(workload, 5, inputs, workloads.parse(workload, inputs, lp), lp)
    items = [item for items in rounds for item in items]
    outputs = [item.call() for item in items]
    for item, out in zip(items, outputs):
        item.check(out)
    kinds = set()
    for item, out in zip(items, outputs):
        with pytest.raises(O.CheckFailed):
            item.check(_corrupt(item.kind, out))
        kinds.add(item.kind)
    assert len(kinds) >= 3


def test_closed_forms_and_brute_force_helpers():
    import mpmath

    assert abs(O.zeta_closed_form((2, 1)) - mpmath.zeta(3)) < mpmath.mpf(10) ** -30
    assert abs(O.zeta_closed_form((2, 2)) - mpmath.pi ** 4 / 120) < mpmath.mpf(10) ** -30
    assert O.zeta_closed_form((5, 1)) is None
    assert O.brute_shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}
    assert O.brute_shuffle((1,), (1,)) == {(1, 1): 2}
    assert O.is_lyndon_word(("x0", 1)) and not O.is_lyndon_word((1, "x0"))
    assert len(O.lyndon_generators([1, 2], 3)) == 9


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _counts(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _counts(_run(ROOT, *args)), _counts(_run(ROOT, *args))
    assert first == second
    assert any(first.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = _run(str(tmp_path), "--workload", "chen-shuffle", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
