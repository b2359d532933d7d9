"""Tests of the benchmark itself: its checks can fail, its workloads run.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hsmoney import experiments, polyhide  # noqa: E402
from hsmoney.experiments import ExperimentConfig, ExperimentOutcome  # noqa: E402

from perfbench import checks, workloads  # noqa: E402
from perfbench.tracing import COST_COUNTS, PER_LAYER  # noqa: E402


def _tiny(name: str, trials: int, gate_rounds: int = 1) -> workloads.Workload:
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, parts=tuple(dataclasses.replace(p, trials=trials) for p in wl.parts),
                               gate_rounds=gate_rounds)


# ---------------------------------------------------------------------------
# the checks can fail


@pytest.mark.parametrize("threshold", [41, 43])
def test_reverify_band_rejects_an_off_by_one_threshold(threshold):
    # the band pools the verifies of a run's gate rounds, a number fixed by
    # the workload and not by the host's speed; a program accepting at 41 or
    # 43 of 60 measures Bin(trials, p) / trials, and even at its 4-sigma edge
    # nearest the honest rate it must fall outside the band
    wl = workloads.WORKLOADS["reverify"]
    trials = wl.gate_rounds * wl.parts[0].trials
    assert checks.threshold_rule(60, 0.2, 0.1) == 42
    honest = checks.honest_rejection_rate(60, 0.2, 42)
    assert checks.rejection_band_ok(round(honest * trials), trials, 60, 0.2, 0.1)[0]
    p = checks.honest_rejection_rate(60, 0.2, threshold)
    edge = p + math.copysign(4 * math.sqrt(p * (1 - p) / trials), honest - p)
    assert not checks.rejection_band_ok(round(edge * trials), trials, 60, 0.2, 0.1)[0]


def test_gates_pool_a_fixed_number_of_rounds():
    wl = _tiny("reverify", 20, gate_rounds=2)
    assert workloads.run_plain(wl, 113, seconds=0)["rounds"] == 2
    checked = workloads.run_checks(wl, 113, [workloads.run_round(wl, 113, r) for r in range(3)])
    band = next(c for c in checked if c.name == "reverify.rejection_band")
    assert band.detail.endswith("over 40 verifies")


def test_exact_tail_matches_brute_force():
    for k in (3, 4):
        for threshold in range(k + 2):
            brute = sum(
                0.8 ** bin(mask).count("1") * 0.2 ** (k - bin(mask).count("1"))
                for mask in range(1 << k) if bin(mask).count("1") < threshold
            )
            assert checks.honest_rejection_rate(k, 0.2, threshold) == pytest.approx(brute)


def test_hybrid_query_count_off_by_one_fails_the_identity():
    cfg = ExperimentConfig(experiment="hybrid-search-budget", n=10, eps=0.05, delta=0.2, trials=6, seed=5)
    records = experiments.run_experiment(cfg).records
    for rec in records:
        assert checks.hybrid_record_ok(rec, cfg.eps, cfg.delta)
        for off in (-1, 1):
            assert not checks.hybrid_record_ok(dict(rec, queries=rec["queries"] + off), cfg.eps, cfg.delta)
    _, big_r = checks.hybrid_schedule(0.05, 0.2)
    exhausted = {"T": 7, "queries": 2 * 7 + big_r * 9}
    assert checks.hybrid_record_ok(exhausted, 0.05, 0.2)
    assert not checks.hybrid_record_ok(dict(exhausted, queries=exhausted["queries"] - 9), 0.05, 0.2)


def test_amplify_query_count_off_by_one_fails_the_identity():
    cfg = ExperimentConfig(experiment="amplify-counterfeiter", n=6, eps=0.2, delta=0.05, trials=4, seed=5)
    for rec in experiments.run_experiment(cfg).records:
        assert checks.amplify_record_ok(rec, cfg.eps, cfg.delta)
        for off in (-1, 1):
            assert not checks.amplify_record_ok(dict(rec, queries=rec["queries"] + off), cfg.eps, cfg.delta)


def test_one_rejected_honest_note_fails_mint_verify():
    cfg = ExperimentConfig(experiment="money-end-to-end", n=16, trials=8)
    summary = {"honest_accepts": 8, "serial_forgery_rejects": 8, "junk_forgery_rejects": 8, "trials": 8}
    assert workloads.operation_failures(cfg, ExperimentOutcome([], summary, True)) == 0
    summary["honest_accepts"] = 7
    assert workloads.operation_failures(cfg, ExperimentOutcome([], summary, False)) == 1


def test_a_nonvanishing_honest_row_is_caught():
    note, secret = polyhide.bank_explicit_with_secret(8, 3, 0.25, 4.0, np.random.default_rng(3))
    system = note.primal_system
    members = checks.span_members(secret.basis)
    assert checks.honest_rows_vanish(system.coeffs, system.noise_positions, members)
    honest = next(i for i in range(system.m) if i not in system.noise_positions)
    broken = system.coeffs.copy()
    broken[honest, 0] ^= 1  # adds the constant 1
    assert not checks.honest_rows_vanish(broken, system.noise_positions, members)


# ---------------------------------------------------------------------------
# every workload runs, at a tiny size


@pytest.mark.parametrize("name, trials", [
    ("search-amplify", 3), ("explicit-notes", 2), ("reverify", 20), ("mint-verify", 2),
])
def test_workload_smoke(name, trials, tmp_path):
    wl = _tiny(name, trials)
    plain = workloads.run_plain(wl, wl.default_seed, seconds=0)
    # one round, after a warm-up round of 1/WARMUP_DIVISOR of its trials
    assert plain["attempted"] == sum(p.trials + max(1, p.trials // workloads.WARMUP_DIVISOR) for p in wl.parts)
    assert plain["failed"] == 0
    assert set(plain["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = workloads.run_traced(wl, wl.default_seed, 0, tmp_path / "spans.npz")
    assert traced["failed"] == 0
    assert dict((c[0], c[1]) for c in traced["checks"])["determinism"]
    assert list(traced["metrics"]) == [name for name, _, _ in PER_LAYER]
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) > 0
    assert (spans["end"] >= spans["start"]).all()

    again = workloads.run_traced(wl, wl.default_seed, 0, tmp_path / "again.npz")
    for count in COST_COUNTS:
        assert again["metrics"][count] == traced["metrics"][count]


def test_tracing_restores_the_program(tmp_path):
    from hsmoney import qsim, search

    before = (qsim.measure_projector, search.measure_projector, qsim.StateVector.__init__)
    workloads.run_traced(_tiny("search-amplify", 1), 103, 0, tmp_path / "spans.npz")
    assert (qsim.measure_projector, search.measure_projector, qsim.StateVector.__init__) == before


# ---------------------------------------------------------------------------
# the command and its description


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reverify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
