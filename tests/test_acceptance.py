"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. Tolerances are pinned here; calibrated constants live in
hsmoney.config.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from hsmoney import config, f2lin, polyhide, privkey
from hsmoney.experiments import ExperimentConfig, run_experiment

WORKERS = min(4, os.cpu_count() or 1)


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {cid}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_c01_verifier_equals_projector():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="verifier-projector", trials=50, seed=101, workers=1)
    outcome = run_experiment(cfg)
    elapsed = time.time() - t0
    ok = outcome.ok and elapsed < 60
    _report(
        "C01 verifier-as-projector",
        ok,
        f"worst entry diff {outcome.summary['worst_entry_diff']:.2e} over n in "
        f"{outcome.summary['sizes']} x 50 subspaces, tol 1e-9, {elapsed:.1f}s",
    )
    assert outcome.ok
    assert elapsed < 60


def test_c02_duality():
    cfg = ExperimentConfig(experiment="duality-check", n=12, trials=1000, seed=102, workers=1)
    outcome = run_experiment(cfg)
    worst = outcome.summary["worst_fidelity"]
    _report("C02 hadamard-duality", outcome.ok, f"worst fidelity {worst:.12f} over 1000 subspaces at n=12, tol 1e-9")
    assert worst >= 1 - 1e-9


def test_c03_hybrid_search_budget():
    t0 = time.time()
    grid = [(0.02, 0.1), (0.02, 0.2), (0.05, 0.1), (0.05, 0.2), (0.1, 0.2)]
    skipped = [(0.1, 0.1)]  # violates the schedule hypothesis delta >= 2 eps
    all_ok = True
    details = []
    for eps, delta in grid:
        cfg = ExperimentConfig(
            experiment="hybrid-search-budget", n=10, eps=eps, delta=delta,
            trials=200, seed=103, workers=WORKERS,
        )
        outcome = run_experiment(cfg)
        s = outcome.summary
        cell_ok = s["mean_infidelity"] <= delta and s["mean_queries"] <= s["query_budget"]
        all_ok = all_ok and cell_ok
        details.append(
            f"(eps={eps},delta={delta}): infid {s['mean_infidelity']:.4f}<= {delta}, "
            f"queries {s['mean_queries']:.0f}<= {s['query_budget']:.0f}"
        )
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 600
    _report(
        "C03 hybrid-search-budget",
        ok,
        f"K={config.HYBRID_QUERY_K}; " + "; ".join(details) +
        f"; skipped {skipped} (hypothesis delta >= 2 eps); {elapsed:.0f}s < 600s",
    )
    assert all_ok
    assert elapsed < 600


def test_c04_fixed_point_monotone():
    cfg = ExperimentConfig(
        experiment="fixed-point-monotone", n=8, eps=0.3, delta=0.05,
        trials=500, seed=104, workers=WORKERS,
    )
    outcome = run_experiment(cfg)
    s = outcome.summary
    _report(
        "C04 fixed-point",
        outcome.ok,
        f"mean fidelity by rounds {s['rounds']}: "
        + ", ".join(f"{v:.4f}" for v in s["mean_fidelities"])
        + f"; monotone(3sigma)={s['monotone']}, reached 1-delta at "
        f"T=ceil(ln(1/d)/(c e^2))={s['rounds'][-1]} (c={config.FIXED_POINT_RATE})",
    )
    assert outcome.ok


def test_c05_counterfeiter_amplification():
    cfg = ExperimentConfig(
        experiment="amplify-counterfeiter", n=8, eps=0.2, delta=0.05,
        trials=200, seed=105, workers=WORKERS,
    )
    outcome = run_experiment(cfg)
    s = outcome.summary
    _report(
        "C05 counterfeiter-amplification",
        outcome.ok,
        f"verify2 pass rate {s['pass_rate']:.3f} >= 0.95; mean queries "
        f"{s['mean_queries']:.0f} <= {s['query_budget']:.0f} "
        f"(K={config.AMPLIFY_QUERY_K})",
    )
    assert s["pass_rate"] >= 0.95
    assert s["mean_queries"] <= s["query_budget"]


def test_c06_progress_bound():
    cfg = ExperimentConfig(experiment="innerprod-progress", n=16, trials=60, seed=106, workers=1)
    outcome = run_experiment(cfg)
    drops = {r["probe"]: r["max_drop"] for r in outcome.records}
    p0s = {r["probe"]: r["p0"] for r in outcome.records}
    bound = 4 * math.sqrt(2.0 ** -8)
    _report(
        "C06 progress-bound",
        outcome.ok,
        f"eps=2^-8, bound 4*sqrt(eps)={bound}; per-probe max drops "
        + ", ".join(f"{k}={v:.4f}" for k, v in drops.items())
        + "; p0 " + ", ".join(f"{v:.3f}" for v in p0s.values()),
    )
    assert outcome.ok
    assert bound == 0.25


def test_c07_cloning_tightness():
    results = {}
    ok = True
    for target, exponent in (("haar", 4.0), ("subspace", 2.0)):
        cfg = ExperimentConfig(
            experiment="clone-search", n=8, target=target, trials=101,
            seed=107, workers=WORKERS,
        )
        outcome = run_experiment(cfg)
        med = outcome.summary["median_queries"]
        ref = (math.pi / 4) * 2 ** exponent
        results[target] = (med, ref)
        ok = ok and outcome.ok and ref / 2 <= med <= 2 * ref
    _report(
        "C07 cloning-tightness",
        ok,
        "; ".join(
            f"{t}: median {m:.0f} within x2 of (pi/4)*2^{e} = {r:.1f}"
            for (t, e), (m, r) in zip((("haar", "n/2"), ("subspace", "n/4")), results.values())
        ),
    )
    assert ok


def test_c08_explicit_completeness():
    cfg = ExperimentConfig(
        experiment="explicit-mint-verify", n=12, d=4, eps=0.25, beta=12.0,
        trials=500, seed=108, workers=WORKERS,
    )
    outcome = run_experiment(cfg)
    s = outcome.summary
    _report(
        "C08 explicit-completeness",
        outcome.ok,
        f"accepts {s['accepts']}/500 (need 500); Z=A and Zperp=Aperp rate "
        f"{s['z_exact_rate']:.3f} >= 0.99",
    )
    assert s["accepts"] == 500
    assert s["z_exact_rate"] >= 0.99


def test_c09_half_vanishing_exhaustive():
    # n=4, d=2: enumerate the whole vanishing ideal for every dim-2 subspace;
    # exactly half of its members vanish at every point outside the subspace
    n, d = 4, 2
    pc = polyhide._popcounts(n)
    all_masks = [m for m in range(1 << n) if pc[m] <= d]
    subspaces = set()
    for rows in range(1 << (2 * n)):
        r1, r2 = rows & 0xF, rows >> n
        sub = f2lin.Subspace.from_rows([r1, r2], n)
        if sub.dim == 2:
            subspaces.add(sub)
    checked = 0
    ok = True
    for sub in subspaces:
        members = set(sub.members())
        ideal = []
        for bits in range(1 << len(all_masks)):
            masks = [all_masks[i] for i in range(len(all_masks)) if (bits >> i) & 1]
            p = polyhide.MultilinearPoly.from_masks(n, d, masks)
            if all(p.eval(v) == 0 for v in members):
                ideal.append(p)
        for v in range(1 << n):
            if v in members:
                continue
            vanish = sum(1 for p in ideal if p.eval(v) == 0)
            checked += 1
            if 2 * vanish != len(ideal):
                ok = False
    _report(
        "C09 half-vanishing",
        ok,
        f"all {len(subspaces)} dim-2 subspaces of F_2^4, ideal size 128, "
        f"{checked} outside points each split the ideal exactly in half",
    )
    assert ok
    assert len(subspaces) == 35


def test_c10_degree1_break():
    cfg = ExperimentConfig(
        experiment="attack-d1", n=12, eps=0.1, beta=6.0, trials=200,
        seed=110, workers=WORKERS,
    )
    outcome = run_experiment(cfg)
    rate = outcome.summary["recovery_rate"]
    from hsmoney.cli import EXIT_USAGE, main

    refused = main(["mint-explicit", "--n", "8", "--d", "1", "--out", "/tmp/acc-d1"]) == EXIT_USAGE
    ok = rate >= 0.99 and refused
    _report(
        "C10 degree1-break",
        ok,
        f"recovery rate {rate:.3f} >= 0.99 over 200 trials at n=12, eps=0.1; "
        f"CLI refuses d=1: {refused}",
    )
    assert rate >= 0.99
    assert refused


def test_c11_wiesner_figures():
    exact = privkey.measure_resend_per_qubit_exact()
    resend_ok = exact == Fraction(5, 8)

    rng = np.random.default_rng(111)
    opt = privkey.optimize_cloning_channel(rng)
    opt_ok = abs(opt.value - 0.75) <= 0.01
    ceiling = privkey.certify_cloning_ceiling()
    ceiling_ok = ceiling == Fraction(3, 4) and opt.value <= ceiling + 1e-12

    cfg = ExperimentConfig(experiment="attack-adaptive", n=16, k=24, trials=100,
                           seed=111, workers=WORKERS)
    outcome = run_experiment(cfg)
    s = outcome.summary
    adaptive_ok = s["recovery_rate"] >= 0.9 and s["queries_per_attack"] == 16 * 4 * 24
    ok = resend_ok and opt_ok and ceiling_ok and adaptive_ok
    _report(
        "C11 wiesner-figures",
        ok,
        f"measure-and-resend per qubit = {exact} (exact 5/8); optimized cloner "
        f"{opt.value:.4f} within 0.75 +- 0.01, exact ceiling {ceiling}; "
        f"adaptive recovery {s['recovery_rate']:.2f} >= 0.9 in "
        f"{s['queries_per_attack']} = 4 n ceil(8 log2(4n))-ish queries",
    )
    assert resend_ok
    assert opt_ok
    assert ceiling_ok
    assert adaptive_ok


def test_c12_query_secure_contrast():
    rng = np.random.default_rng(112)
    bank = privkey.KeyedSubspaceBank(8, b"acceptance-key")
    serial, state = bank.mint(rng)
    honest = 0
    post = state
    for _ in range(200):
        okv, post = bank.verify(serial, post, rng)
        honest += okv
    cfg = ExperimentConfig(experiment="keyed-contrast", n=8, seed=112, workers=1)
    outcome = run_experiment(cfg)
    s = outcome.summary
    ok = honest == 200 and outcome.ok
    _report(
        "C12 query-secure-contrast",
        ok,
        f"honest verifications 200/200; transplanted attack spread within 3 sigma "
        f"of the shared-rate null: {s['spread_no_signal']}; forged pass rate "
        f"{s['forged_pass_rate']:.3f} at chance scale",
    )
    assert honest == 200
    assert outcome.ok


def test_c13_completeness_amplification():
    cfg = ExperimentConfig(
        experiment="completeness-amplification", n=8, eps=0.2, k=60, eta=0.1,
        trials=10_000, seed=113, workers=1,
    )
    outcome = run_experiment(cfg)
    s = outcome.summary
    reduction_trials = next(r["trials"] for r in outcome.records if r["kind"] == "reduction")
    reduction_ok = s["reduction_rate"] >= s["reduction_floor"] - 3 * math.sqrt(
        max(s["reduction_rate"] * (1 - s["reduction_rate"]), 1e-9) / reduction_trials
    )
    # honest composite error, derived here from the config alone: accept when
    # at least ceil((1 - eps - eta) k) of k sub-notes accept, each accepting
    # independently with probability 1 - eps
    eps, eta = Fraction(str(cfg.eps)), Fraction(str(cfg.eta))
    threshold = math.ceil((1 - eps - eta) * cfg.k)
    exact = float(sum(
        math.comb(cfg.k, j) * (1 - eps) ** j * eps ** (cfg.k - j) for j in range(threshold)
    ))
    band = 4 * math.sqrt(exact * (1 - exact) / cfg.trials)
    error_ok = abs(s["composite_error"] - exact) <= band
    exponential_ok = exact <= s["chernoff_bound"]
    ok = error_ok and exponential_ok and reduction_ok
    _report(
        "C13 completeness-amplification",
        ok,
        f"composite error {s['composite_error']:.4f} within 4 sigma ({band:.4f}) of "
        f"the exact threshold-{threshold}-of-{cfg.k} binomial tail {exact:.4f}: "
        f"{error_ok}; exact tail <= Hoeffding bound {s['chernoff_bound']:.3f}: "
        f"{exponential_ok}; reduction rate {s['reduction_rate']:.3f} >= floor "
        f"{s['reduction_floor']:.3f} - 3 sigma: {reduction_ok}",
    )
    assert s["threshold"] == threshold
    assert s["exact_error"] == pytest.approx(exact, rel=1e-12)
    assert reduction_ok
    assert error_ok, (
        f"composite completeness error {s['composite_error']:.4f} is more than 4 "
        f"sigma ({band:.4f}) from the exact honest rate P[Bin({cfg.k}, {1 - eps}) "
        f"< {threshold}] = {exact:.4f}"
    )
    assert exponential_ok, (
        f"exact tail {exact:.4f} exceeds the Hoeffding bound exp(-2 k eta^2) = "
        f"{s['chernoff_bound']:.4f}"
    )
    assert outcome.ok


def test_c14_money_end_to_end():
    cfg = ExperimentConfig(experiment="money-end-to-end", n=10, trials=1000,
                           seed=114, workers=1)
    outcome = run_experiment(cfg)
    s = outcome.summary
    _report(
        "C14 money-end-to-end",
        outcome.ok,
        f"honest accepts {s['honest_accepts']}/1000; altered-serial rejects "
        f"{s['serial_forgery_rejects']}/1000; junk-state rejects "
        f"{s['junk_forgery_rejects']}/1000",
    )
    assert outcome.ok
