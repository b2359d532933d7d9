"""Seeded, reproducible experiment catalog.

Every experiment takes an ExperimentConfig, fans trials out over per-trial
generators derived by splitting the root seed, and returns JSON-ready trial
records plus a summary with a pass/fail verdict. Identical (config, seed)
pairs produce byte-identical reports regardless of worker count, because
records are keyed and emitted in trial order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import advlab, config, f2lin, hsmini, money, polyhide, privkey, search
from .qsim import StateVector, fidelity_to_goal, hadamard_all, haar_random_state, subspace_state


@dataclass
class ExperimentConfig:
    experiment: str
    n: Optional[int] = None
    d: Optional[int] = None
    eps: Optional[float] = None
    beta: Optional[float] = None
    delta: Optional[float] = None
    k: Optional[int] = None
    eta: Optional[float] = None
    trials: Optional[int] = None
    seed: int = 0
    scheme: Optional[str] = None
    target: Optional[str] = None
    workers: int = 1


# The experiment options; seed and workers say how a run is made, not what it measures.
OPTIONS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in ("experiment", "seed", "workers"))

Check = Callable[[ExperimentConfig], Optional[str]]  # why a bound refuses its option's value, or None


class Option:
    """An option a runner reads: its default, None where the runner picks the
    value itself, and its bound, checks that run in declaration order, so a
    check may read any option declared before its own."""

    def __init__(self, default: object, *checks: Check):
        self.default, self.checks = default, checks


@dataclass
class ExperimentOutcome:
    records: List[dict]
    summary: dict
    ok: bool


@dataclass
class ExperimentSpec:
    id: str
    claim: str
    options: Dict[str, Option]
    runner: Callable[[ExperimentConfig], ExperimentOutcome]


def _map_trials(
    cfg: ExperimentConfig, fn: Callable[[ExperimentConfig, int, np.random.Generator], dict], trials: int
) -> List[dict]:
    """fn(cfg, i, rng) for every trial i, in trial order; trial i draws from
    the i-th child of the root seed, so records match at any worker count.
    The trial function, the config and the seed sequence all pickle."""
    seqs = np.random.SeedSequence(cfg.seed).spawn(trials)
    jobs = [(fn, cfg, i, seq) for i, seq in enumerate(seqs)]
    workers = min(cfg.workers, trials, os.cpu_count() or 1)  # the pool forks them all at its first submit
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_trial, jobs, chunksize=max(1, trials // (4 * workers))))
    return [_run_trial(job) for job in jobs]


def _run_trial(job) -> dict:
    fn, cfg, index, seq = job
    return fn(cfg, index, np.random.default_rng(seq))


# ---------------------------------------------------------------------------
# verify-roundtrip


def _mint_and_verify_once(cfg: ExperimentConfig, rng: np.random.Generator) -> bool:
    if cfg.scheme == "hsmini":
        scheme = hsmini.HsMiniScheme(hsmini.OracleBundle(cfg.n, rng))
        note = scheme.bank(rng)
        return scheme.verify(note.serial, note.state, rng)
    if cfg.scheme == "explicit":
        note, _ = polyhide.bank_explicit_with_secret(cfg.n, cfg.d, cfg.eps, cfg.beta, rng)
        return polyhide.verify_explicit(note, rng)
    if cfg.scheme == "keyed":
        bank = privkey.KeyedSubspaceBank(cfg.n, rng.bytes(16))
        serial, state = bank.mint(rng)
        ok, _ = bank.verify(serial, state, rng)
        return ok
    bank, note = privkey.wiesner_bank(cfg.n, rng)  # the scheme bound leaves only wiesner
    ok, _ = bank.verify(note.serial, note.qubits, rng)
    return ok


def trial_verify_roundtrip(cfg: ExperimentConfig, index: int, rng) -> dict:
    return {"trial": index, "accepted": bool(_mint_and_verify_once(cfg, rng))}


def run_verify_roundtrip(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_verify_roundtrip, cfg.trials)
    accepts = sum(r["accepted"] for r in records)
    ok = accepts == cfg.trials
    return ExperimentOutcome(
        records,
        {"scheme": cfg.scheme, "n": cfg.n, "accepts": accepts, "trials": cfg.trials},
        ok,
    )


# ---------------------------------------------------------------------------
# duality-check


def trial_duality(cfg: ExperimentConfig, index: int, rng) -> dict:
    a = f2lin.random_subspace(cfg.n, cfg.n // 2, rng)
    fid = hadamard_all(subspace_state(a)).overlap(subspace_state(a.dual()))
    return {"trial": index, "fidelity": float(fid)}


def run_duality_check(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_duality, cfg.trials)
    worst = min(r["fidelity"] for r in records)
    ok = worst >= 1 - 1e-9
    return ExperimentOutcome(records, {"n": cfg.n, "worst_fidelity": worst}, ok)


# ---------------------------------------------------------------------------
# verifier-projector


def run_verifier_projector(cfg: ExperimentConfig) -> ExperimentOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    records = []
    worst = 0.0
    sizes = (4, 6, 8, 10) if cfg.n is None else (cfg.n,)
    for n in sizes:
        for t in range(cfg.trials):
            bundle = hsmini.OracleBundle(n, rng)
            note = hsmini.bank(bundle, rng)
            diff = hsmini.verifier_operator_distance(bundle, note.serial)
            worst = max(worst, diff)
            records.append({"n": n, "trial": t, "max_entry_diff": diff})
    ok = worst <= 1e-9
    return ExperimentOutcome(records, {"sizes": list(sizes), "worst_entry_diff": worst}, ok)


# ---------------------------------------------------------------------------
# hybrid-search-budget


def trial_hybrid(cfg: ExperimentConfig, index: int, rng) -> dict:
    p = search.planted_problem(cfg.n, cfg.eps, rng)
    params = search.SearchParams(eps=cfg.eps, delta=cfg.delta)
    trace: dict = {}
    out, queries = search.hybrid_search(p, params, rng, trace=trace)
    return {
        "trial": index,
        "eps": cfg.eps,
        "delta": cfg.delta,
        "T": trace["T"],
        "R": params.R,
        "queries": int(queries),
        "fidelity": float(fidelity_to_goal(out, p.goal_projector)),
    }


def run_hybrid_budget(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_hybrid, cfg.trials)
    mean_infid = float(np.mean([1 - r["fidelity"] for r in records]))
    mean_queries = float(np.mean([r["queries"] for r in records]))
    budget = config.HYBRID_QUERY_K * math.log(1 / cfg.delta) / (cfg.eps * cfg.delta ** 2)
    ok = mean_infid <= cfg.delta and mean_queries <= budget
    return ExperimentOutcome(
        records,
        {
            "eps": cfg.eps,
            "delta": cfg.delta,
            "mean_infidelity": mean_infid,
            "mean_queries": mean_queries,
            "query_budget": budget,
        },
        ok,
    )


# ---------------------------------------------------------------------------
# fixed-point-monotone


def trial_fixed_point(cfg: ExperimentConfig, index: int, rng) -> dict:
    checkpoints = _fixed_point_checkpoints(cfg)
    fids = {}
    for t_rounds in checkpoints:
        q = search.planted_problem(cfg.n, cfg.eps, rng)
        out = search.fixed_point_search(q, t_rounds, rng)
        fids[str(t_rounds)] = float(fidelity_to_goal(out, q.goal_projector))
    return {"trial": index, "fidelity_by_rounds": fids}


def _fixed_point_checkpoints(cfg: ExperimentConfig) -> List[int]:
    t_target = math.ceil(search.fixed_point_rounds(cfg.eps ** 2, cfg.delta))
    return sorted({2, max(3, t_target // 4), max(4, t_target // 2), t_target})


def run_fixed_point_monotone(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_fixed_point, cfg.trials)
    checkpoints = _fixed_point_checkpoints(cfg)
    means = []
    sems = []
    for t_rounds in checkpoints:
        vals = np.array([r["fidelity_by_rounds"][str(t_rounds)] for r in records])
        means.append(float(vals.mean()))
        sems.append(float(vals.std(ddof=1) / math.sqrt(len(vals))))
    monotone = all(
        means[i + 1] >= means[i] - 3 * math.hypot(sems[i], sems[i + 1])
        for i in range(len(means) - 1)
    )
    reached = means[-1] >= 1 - cfg.delta
    return ExperimentOutcome(
        records,
        {
            "eps": cfg.eps,
            "delta": cfg.delta,
            "rounds": checkpoints,
            "mean_fidelities": means,
            "monotone": monotone,
            "target_reached": reached,
        },
        monotone and reached,
    )


# ---------------------------------------------------------------------------
# amplify-counterfeiter


def trial_amplify(cfg: ExperimentConfig, index: int, rng) -> dict:
    scheme = hsmini.HsMiniScheme(hsmini.OracleBundle(cfg.n, rng))
    note = scheme.bank(rng)
    cloner = advlab.PlantedCloner(scheme.target_state(note.serial), cfg.eps)
    res = advlab.amplify_counterfeiter(cloner, scheme, note, cfg.eps, cfg.delta, rng)
    passed = money.verify2(scheme, note.serial, res.state, rng)
    return {
        "trial": index,
        "queries": res.queries,
        "rounds": res.rounds,
        "passed": bool(passed),
    }


def run_amplify_counterfeiter(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_amplify, cfg.trials)
    pass_rate = sum(r["passed"] for r in records) / len(records)
    mean_queries = float(np.mean([r["queries"] for r in records]))
    budget = advlab.amplification_budget(cfg.eps, cfg.delta)
    ok = pass_rate >= 0.95 and mean_queries <= budget
    return ExperimentOutcome(
        records,
        {
            "eps": cfg.eps,
            "delta": cfg.delta,
            "pass_rate": pass_rate,
            "mean_queries": mean_queries,
            "query_budget": budget,
        },
        ok,
    )


# ---------------------------------------------------------------------------
# innerprod-progress


def run_innerprod_progress(cfg: ExperimentConfig) -> ExperimentOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    relation = advlab.SubspaceNeighborRelation(cfg.n)
    records = []
    ok = True
    for probe in advlab.default_probes():
        trace = advlab.track_progress(probe, relation, cfg.trials, rng)
        sem = max(trace.stderr) if trace.stderr else 0.0
        bound = trace.drop_bound + 3 * sem * math.sqrt(2)
        probe_ok = trace.max_drop <= bound and abs(trace.p_values[0] - 0.5) <= 4 * sem + 1e-9
        ok = ok and probe_ok
        records.append(
            {
                "probe": probe.name,
                "p_trace": [round(v, 6) for v in trace.p_values],
                "max_drop": trace.max_drop,
                "drop_bound": trace.drop_bound,
                "p0": trace.p_values[0],
                "ok": probe_ok,
            }
        )
    return ExperimentOutcome(
        records,
        {"n": cfg.n, "eps_bound": relation.eps_bound, "all_probes_ok": ok},
        ok,
    )


# ---------------------------------------------------------------------------
# clone-search


def trial_clone_search(cfg: ExperimentConfig, index: int, rng) -> dict:
    if cfg.target == "haar":
        target = haar_random_state(cfg.n, rng)
        guess = 2.0 ** (-cfg.n / 2)
    else:
        target = subspace_state(f2lin.random_subspace(cfg.n, cfg.n // 2, rng))
        guess = 2.0 ** (-cfg.n / 4)
    state, queries = advlab.clone_by_search(target, rng, overlap_guess=guess)
    return {"trial": index, "queries": queries, "fidelity": float(state.overlap(target))}


def run_clone_search(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_clone_search, cfg.trials)
    med = float(np.median([r["queries"] for r in records]))
    exponent = cfg.n / 2 if cfg.target == "haar" else cfg.n / 4
    ref = (math.pi / 4) * 2 ** exponent
    ok = ref / 2 <= med <= 2 * ref
    successes = [r["fidelity"] for r in records if r["fidelity"] > 0.5]
    fid_ok = bool(successes) and min(successes) >= 0.999
    return ExperimentOutcome(
        records,
        {"target": cfg.target, "median_queries": med, "reference": ref, "within_2x": ok},
        ok and fid_ok,
    )


# ---------------------------------------------------------------------------
# kcopy-scaling


def run_kcopy_scaling(cfg: ExperimentConfig) -> ExperimentOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    ks = (1, 2, 4) if cfg.k is None else (cfg.k,)
    records = []
    medians = []
    for k in ks:
        queries = [advlab.kcopy_run(cfg.n, k, rng) for _ in range(cfg.trials)]
        medians.append(float(np.median(queries)))
        records.append(
            {
                "k": k,
                "median_queries": medians[-1],
                "reference": (math.pi / 4) * 2 ** (cfg.n / 2) / math.sqrt(k + 1),
                "queries": queries,
            }
        )
    ok = all(medians[i + 1] <= medians[i] for i in range(len(medians) - 1))
    return ExperimentOutcome(records, {"n": cfg.n, "medians": medians, "decreasing": ok}, ok)


# ---------------------------------------------------------------------------
# explicit-mint-verify


def trial_explicit_mint_verify(cfg: ExperimentConfig, index: int, rng) -> dict:
    note, secret = polyhide.bank_explicit_with_secret(cfg.n, cfg.d, cfg.eps, cfg.beta, rng)
    accepted = polyhide.verify_explicit(note, rng)
    z_ok = polyhide.zset_subspace(note.primal_system) == secret
    zp_ok = polyhide.zset_subspace(note.dual_system) == secret.dual()
    return {"trial": index, "accepted": bool(accepted), "z_exact": bool(z_ok and zp_ok)}


def run_explicit_mint_verify(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_explicit_mint_verify, cfg.trials)
    accepts = sum(r["accepted"] for r in records)
    z_rate = sum(r["z_exact"] for r in records) / len(records)
    ok = accepts == cfg.trials and z_rate >= 0.99
    return ExperimentOutcome(
        records,
        {"n": cfg.n, "d": cfg.d, "eps": cfg.eps, "beta": cfg.beta,
         "accepts": accepts, "trials": cfg.trials, "z_exact_rate": z_rate},
        ok,
    )


# ---------------------------------------------------------------------------
# attack-d1


def trial_attack_d1(cfg: ExperimentConfig, index: int, rng) -> dict:
    n = cfg.n
    a = f2lin.random_subspace(n, n // 2, rng)
    m = polyhide.system_rows(cfg.beta, n)
    primal = polyhide.sample_noisy_system(a, 1, m, cfg.eps, rng)
    dual = polyhide.sample_noisy_system(a.dual(), 1, m, cfg.eps, rng)
    try:
        recovered = polyhide.degree1_attack(primal, dual)
        win = recovered == a
    except polyhide.DegreeOneAttackError:
        win = False
    return {"trial": index, "recovered": bool(win)}


def run_attack_d1(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_attack_d1, cfg.trials)
    rate = sum(r["recovered"] for r in records) / len(records)
    ok = rate >= 0.99
    return ExperimentOutcome(
        records, {"n": cfg.n, "eps": cfg.eps, "beta": cfg.beta, "recovery_rate": rate}, ok
    )


# ---------------------------------------------------------------------------
# attack-adaptive


def trial_attack_adaptive(cfg: ExperimentConfig, index: int, rng) -> dict:
    bank, note = privkey.wiesner_bank(cfg.n, rng)
    res = privkey.adaptive_attack(bank, note, cfg.k, rng)
    record = list(bank.record_for(note.serial))
    recovered = res.recovered == record
    forged_ok, _ = bank.verify(note.serial, res.recovered, rng)
    return {
        "trial": index,
        "recovered": bool(recovered),
        "forged_passes": bool(forged_ok),
        "queries": res.queries,
    }


def run_attack_adaptive(cfg: ExperimentConfig) -> ExperimentOutcome:
    records = _map_trials(cfg, trial_attack_adaptive, cfg.trials)
    rate = sum(r["recovered"] for r in records) / len(records)
    queries = records[0]["queries"]
    ok = rate >= 0.9 and queries == 4 * cfg.n * cfg.k
    return ExperimentOutcome(
        records,
        {"n": cfg.n, "samples_per_candidate": cfg.k, "recovery_rate": rate,
         "queries_per_attack": queries},
        ok,
    )


# ---------------------------------------------------------------------------
# attack-clone


def _binomial_tails(trials: int, p: float, hits: int) -> Tuple[float, float]:
    """(P[X <= hits], P[X >= hits]) for X ~ Bin(trials, p), 0 < p < 1, from
    the probability mass function built as a running sum of log ratios."""
    j = np.arange(trials)
    steps = np.log((trials - j) / (j + 1)) + (math.log(p) - math.log1p(-p))
    pmf = np.exp(trials * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(steps))))
    return float(pmf[: hits + 1].sum()), float(pmf[hits:].sum())


def run_attack_clone(cfg: ExperimentConfig) -> ExperimentOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    exact = privkey.measure_resend_per_qubit_exact()
    # empirical measure-and-resend at n qubits
    n = cfg.n
    hits = 0
    for _ in range(cfg.trials):
        bank, note = privkey.wiesner_bank(n, rng)
        c1, c2 = privkey.measure_resend_clone(note, rng)
        ok1, _ = bank.verify(note.serial, c1.qubits, rng)
        ok2, _ = bank.verify(note.serial, c2.qubits, rng)
        hits += ok1 and ok2
    emp = hits / cfg.trials
    want = float(exact) ** n
    # hits is Bin(trials, want): gate on its exact tails at the two-sided
    # level of a 4-sigma normal band, which at trials * want << 1 would fail
    # a single hit far more often than that level
    resend_ok = min(_binomial_tails(cfg.trials, want, hits)) >= math.erfc(4 / math.sqrt(2)) / 2
    opt = privkey.optimize_cloning_channel(rng)
    ceiling = float(privkey.certify_cloning_ceiling())
    opt_ok = abs(opt.value - ceiling) <= 0.01 and opt.value <= ceiling + 1e-12
    records = [
        {"kind": "measure-resend-per-qubit", "exact": float(exact)},
        {"kind": "measure-resend-empirical", "n": n, "rate": emp, "expected": want},
        # one start, no restarts; the field keeps the record's layout
        {"kind": "optimized-channel", "value": opt.value, "restarts": 1},
    ]
    return ExperimentOutcome(
        records,
        {
            "per_qubit_exact": float(exact),
            "empirical_rate": emp,
            "optimized_value": opt.value,
        },
        resend_ok and opt_ok and float(exact) == 5 / 8,
    )


# ---------------------------------------------------------------------------
# keyed-contrast


def run_keyed_contrast(cfg: ExperimentConfig) -> ExperimentOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    n = cfg.n
    samples = cfg.k or privkey.default_samples_per_candidate(n)
    bank = privkey.KeyedSubspaceBank(n, rng.bytes(16))
    serial, state = bank.mint(rng)
    honest = all(bank.verify(serial, state, rng)[0] for _ in range(20))

    res = privkey.transplanted_adaptive_attack(bank, serial, state, samples, rng)
    spreads = res.rates.max(axis=1) - res.rates.min(axis=1)
    # null model: per qubit, all four candidates share the pooled rate
    null_spreads = []
    null_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed + 1))
    for i in range(n):
        pooled = res.rates[i].mean()
        draws = null_rng.binomial(samples, pooled, size=(400, 4)) / samples
        null_spreads.append(draws.max(axis=1) - draws.min(axis=1))
    null = np.array(null_spreads)  # (n, sims) spread draws per qubit
    null_stats = null.mean(axis=0)  # the statistic: mean spread over qubits
    null_mean = float(null_stats.mean())
    null_std = float(null_stats.std(ddof=1))
    observed = float(spreads.mean())
    no_signal = observed <= null_mean + 3 * max(null_std, 1e-3)

    forged = _product_state(res.recovered)
    forged_pass = sum(bank.verify(serial, forged, rng)[0] for _ in range(200)) / 200
    chance = 2.0 ** (-n / 2)
    forging_fails = forged_pass <= max(0.15, 10 * chance)
    records = [
        {"kind": "honest-reverification", "always_accepts": bool(honest)},
        {"kind": "spread", "observed_mean": observed, "null_mean": float(null_mean),
         "null_std": float(null_std)},
        {"kind": "forgery", "pass_rate": forged_pass, "chance_scale": chance},
    ]
    return ExperimentOutcome(
        records,
        {
            "n": n,
            "honest_ok": bool(honest),
            "spread_no_signal": bool(no_signal),
            "forged_pass_rate": forged_pass,
        },
        bool(honest) and no_signal and forging_fails,
    )


def _product_state(codes: Sequence[int]) -> StateVector:
    state = StateVector(1, privkey.BB84_VECTORS[codes[0]].copy())
    for c in codes[1:]:
        state = state.tensor(StateVector(1, privkey.BB84_VECTORS[c].copy()))
    return state


# ---------------------------------------------------------------------------
# completeness-amplification


def run_completeness_amplification(cfg: ExperimentConfig) -> ExperimentOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    base = hsmini.HsMiniScheme(hsmini.OracleBundle(cfg.n, rng))
    noisy = money.ArtificiallyNoisyScheme(base, extra_reject=cfg.eps)
    composite = money.CompositeScheme(noisy, cfg.k, cfg.eta)
    note = composite.bank(rng)
    rejects = sum(not composite.verify(note, rng) for _ in range(cfg.trials))
    error = rejects / cfg.trials

    # reduction: composite counterfeiter cloning a random 90% of positions
    def scripted(note_in, rng_in):
        keep = rng_in.random(composite.k) < 0.9
        sig, xi = [], []
        for idx, serial in enumerate(note_in.serials):
            if keep[idx]:
                target = base.target_state(serial)
                sig.append(target)
                xi.append(target)
            else:
                sig.append(StateVector.basis(cfg.n, 1))
                xi.append(StateVector.basis(cfg.n, 1))
        return sig, xi

    reduction_trials = max(200, cfg.trials // 20)
    comp_hits = 0
    single_hits = 0
    for _ in range(reduction_trials):
        target_note = noisy.bank(rng)
        serial, s1, s2 = money.composite_reduction_attempt(composite, scripted, target_note, rng)
        if money.verify2(noisy, serial, (s1, s2), rng):
            single_hits += 1
        fresh = composite.bank(rng)
        sig, xi = scripted(fresh, rng)
        if composite.verify2(fresh.serials, sig, xi, rng):
            comp_hits += 1
    delta_prime = comp_hits / reduction_trials
    single_rate = single_hits / reduction_trials
    floor_rate = (1 - 2 * cfg.eps - 2 * cfg.eta) * delta_prime
    sigma = math.sqrt(max(single_rate * (1 - single_rate), 1e-9) / reduction_trials)
    reduction_ok = single_rate >= floor_rate - 3 * sigma

    # the rejection count is Bin(trials, exact_error): gate on a 4-sigma band
    # around the exact tail of the threshold rule, which must itself sit
    # below the advertised Hoeffding bound
    exact_error = composite.exact_completeness_error()
    band = 4 * math.sqrt(exact_error * (1 - exact_error) / cfg.trials)
    error_ok = (
        abs(error - exact_error) <= band
        and exact_error <= composite.completeness_error_bound
    )

    records = [
        {"kind": "completeness", "k": cfg.k, "eta": cfg.eta, "threshold": composite.threshold,
         "rejects": rejects, "trials": cfg.trials, "error": error},
        {"kind": "reduction", "delta_prime": delta_prime, "single_rate": single_rate,
         "floor": floor_rate, "trials": reduction_trials},
    ]
    return ExperimentOutcome(
        records,
        {
            "threshold": composite.threshold,
            "composite_error": error,
            "exact_error": exact_error,
            "chernoff_bound": composite.completeness_error_bound,
            "reduction_rate": single_rate,
            "reduction_floor": floor_rate,
        },
        error_ok and reduction_ok,
    )


# ---------------------------------------------------------------------------
# money-end-to-end


def run_money_end_to_end(cfg: ExperimentConfig) -> ExperimentOutcome:
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    mini = hsmini.HsMiniScheme(hsmini.OracleBundle(cfg.n, rng))
    height = max(2, math.ceil(math.log2(max(2, cfg.trials))))
    scheme = money.ComposedScheme(mini, money.LamportMerkleSigner(tree_height=height))
    sk, pk = scheme.keygen(rng)
    honest_accepts = 0
    serial_forgery_rejects = 0
    junk_forgery_rejects = 0
    for _ in range(cfg.trials):
        note = scheme.bank(sk, rng)
        if scheme.verify(pk, note, rng):
            honest_accepts += 1
        altered = bytes([note.serial[0] ^ 1]) + note.serial[1:]
        if not scheme.verify(pk, money.MoneyNote(altered, note.signature, note.state), rng):
            serial_forgery_rejects += 1
        entry = mini.bundle.lookup(note.serial)
        junk_vec = next(x for x in range(1, 1 << cfg.n) if not entry.subspace.contains(x))
        junk = StateVector.basis(cfg.n, junk_vec)
        if not scheme.verify(pk, money.MoneyNote(note.serial, note.signature, junk), rng):
            junk_forgery_rejects += 1
    ok = (
        honest_accepts == cfg.trials
        and serial_forgery_rejects == cfg.trials
        and junk_forgery_rejects == cfg.trials
    )
    records = [
        {"kind": "honest", "accepts": honest_accepts, "trials": cfg.trials},
        {"kind": "altered-serial", "rejects": serial_forgery_rejects},
        {"kind": "junk-state", "rejects": junk_forgery_rejects},
    ]
    return ExperimentOutcome(
        records,
        {
            "honest_accepts": honest_accepts,
            "serial_forgery_rejects": serial_forgery_rejects,
            "junk_forgery_rejects": junk_forgery_rejects,
            "trials": cfg.trials,
        },
        ok,
    )


# ---------------------------------------------------------------------------
# option bounds

# Longest loop an option may set: search rounds run one at a time in Python.
_SCHEDULE_CAP = 1 << 24
# Most trials: all their seeds are built first; money-end-to-end signs a note per leaf of 2^16.
_TRIALS_CAP = 1 << 16
# Most bytes of a composite note's k dense sub-notes, built as notes and again as stacked targets.
_NOTES_BYTES_CAP = 1 << 30
# Most sub-note verifications of completeness-amplification; its defaults make 660,000.
_COMPOSITE_WORK_CAP = 1 << 20


def _within(name: str, interval: str, test: Callable) -> Check:
    """name must pass test, which interval describes; NaN fails every comparison."""
    return lambda cfg: (None if test(getattr(cfg, name))
                        else f"{name} must lie in {interval}, got {getattr(cfg, name)}")


def _count(name: str, lo: int, hi) -> Check:
    """An integer in [lo, hi]; hi may be a function of the config."""
    top = hi if callable(hi) else lambda cfg: hi
    return lambda cfg: _within(name, f"[{lo}, {top(cfg)}]", lambda v: lo <= v <= top(cfg))(cfg)


def _qubits(default: Optional[int], hi=lambda cfg: config.qubit_cap(), even: bool = True) -> Option:
    """n in [2, hi], the widest the runner's registers allow; even where n/2 dimensions are hidden."""
    parity = [lambda cfg: f"n must be even, got {cfg.n}" if cfg.n % 2 else None] if even else []
    return Option(default, _count("n", 2, hi), *parity)


def _schedule(name: str, steps: Callable[[ExperimentConfig], float]) -> Check:
    """name is refused when the search schedule it sets runs past _SCHEDULE_CAP steps."""
    return lambda cfg: None if steps(cfg) <= _SCHEDULE_CAP else (
        f"{name}={getattr(cfg, name)} is too small: at eps={cfg.eps} and delta={cfg.delta} it sets "
        f"a search schedule of {steps(cfg):.3g} steps, above the cap of {_SCHEDULE_CAP}")


def _table_rows(cfg: ExperimentConfig) -> Optional[str]:
    """ceil(beta n) polynomials of one coefficient byte per point of F_2^n."""
    return None if polyhide.table_fits(polyhide.system_rows(cfg.beta, cfg.n), cfg.n) else (
        f"beta={cfg.beta} sets ceil(beta n) rows of 2^n coefficient bytes at n={cfg.n}, "
        f"above the table cap 2^{config.F2_DIM_CAP}")


def _composite_work(cfg: ExperimentConfig) -> Optional[str]:
    """k sub-notes per composite verification: trials of them, and two per
    reduction trial."""
    work = cfg.k * (cfg.trials + 2 * max(200, cfg.trials // 20))
    return None if work <= _COMPOSITE_WORK_CAP else (
        f"k={cfg.k} at trials={cfg.trials} sets {work} sub-note verifications, "
        f"above the cap of {_COMPOSITE_WORK_CAP}")


def _samples(cfg: ExperimentConfig) -> Optional[str]:
    """k, the swap-out attacks' samples per candidate: 4 n k verifications in all."""
    if cfg.k < 1:
        return f"k (samples per candidate) must be at least 1, got {cfg.k}"
    return _count("k", 1, lambda cfg: _SCHEDULE_CAP // (4 * cfg.n))(cfg)


_TRIALS = _count("trials", 1, _TRIALS_CAP)
_D = Option(4, _count("d", 1, config.F2_DIM_CAP))
_EPS_NOISE = _within("eps", "[0, 1)", lambda v: 0 <= v < 1)  # the share of noisy serial rows
_EPS_PROMISE = _within("eps", "(0, 1]", lambda v: 0 < v <= 1)  # a promised overlap or pass rate
_DELTA = _within("delta", "(0, 1)", lambda v: 0 < v < 1)
_BETA = _within("beta", "(0, inf)", lambda v: 0 < v < math.inf)


# ---------------------------------------------------------------------------
# catalog

CATALOG: Dict[str, ExperimentSpec] = {spec.id: spec for spec in (
    ExperimentSpec(
        "verify-roundtrip", "honest mint-then-verify accepts every time (perfect completeness)",
        dict(scheme=Option("hsmini", _within("scheme", "{hsmini, explicit, keyed, wiesner}",
                                             ("hsmini", "explicit", "keyed", "wiesner").__contains__)),
             n=_qubits(10), d=_D, eps=Option(0.25, _EPS_NOISE),
             # only explicit serials are polynomial tables
             beta=Option(12.0, _BETA, lambda cfg: _table_rows(cfg) if cfg.scheme == "explicit" else None),
             trials=Option(100, _TRIALS)), run_verify_roundtrip),
    ExperimentSpec(
        "duality-check", "the full Hadamard transform maps a money state to its dual's state",
        dict(n=_qubits(12, even=False), trials=Option(1000, _TRIALS)), run_duality_check),
    ExperimentSpec(
        "verifier-projector", "the project/transform/project/transform circuit equals the rank-1 projector",
        # n None: 4, 6, 8 and 10; the dense circuit matrix stops at 10
        dict(n=_qubits(None, hi=10), trials=Option(50, _TRIALS)), run_verifier_projector),
    ExperimentSpec(
        "hybrid-search-budget", "randomized amplification + fixed-point clean-up reaches 1-delta within "
        "K log(1/delta)/(eps delta^2) queries",
        dict(n=_qubits(10, even=False),
             delta=Option(0.2, _DELTA, _schedule("delta", lambda cfg: search.cleanup_rounds(cfg.delta))),
             eps=Option(0.05, _EPS_PROMISE, _schedule("eps", lambda cfg: search.hybrid_draws(cfg.eps)),
                        lambda cfg: None if cfg.eps >= 1 or cfg.delta >= 2 * cfg.eps
                        else f"eps must lie in (0, delta/2] or be 1, got {cfg.eps}"),
             trials=Option(200, _TRIALS)), run_hybrid_budget),
    ExperimentSpec(
        "fixed-point-monotone", "goal fidelity is monotone in rounds and reaches 1-delta within "
        "ln(1/delta)/(c eps^2) rounds",
        dict(n=_qubits(8, even=False), delta=Option(0.05, _DELTA),
             eps=Option(0.3, _EPS_PROMISE,
                        _schedule("eps", lambda cfg: search.fixed_point_rounds(cfg.eps ** 2, cfg.delta))),
             trials=Option(500, _TRIALS)), run_fixed_point_monotone),
    ExperimentSpec(
        "amplify-counterfeiter", "a weak counterfeiter is boosted to near-perfect double-verification",
        # the goal is the doubled note, on 2n qubits
        dict(n=_qubits(8, hi=lambda cfg: config.qubit_cap() // 2), delta=Option(0.05, _DELTA),
             eps=Option(0.2, _EPS_PROMISE,
                        _schedule("eps", lambda cfg: advlab.amplify_backend(cfg.eps, cfg.delta)[1])),
             trials=Option(200, _TRIALS)),
        run_amplify_counterfeiter),
    ExperimentSpec(
        "innerprod-progress", "per-query drop of the cross-oracle inner product stays within 4 sqrt(eps)",
        # the combined oracles act on n + 1 bits
        dict(n=_qubits(16, hi=lambda cfg: config.qubit_cap() - 1), trials=Option(60, _TRIALS)),
        run_innerprod_progress),
    ExperimentSpec(
        "clone-search", "preparing a verifier's target by search costs about (pi/4) / overlap queries",
        dict(n=_qubits(8, even=False), trials=Option(101, _TRIALS),
             target=Option("haar", _within("target", "{haar, subspace}", ("haar", "subspace").__contains__))),
        run_clone_search),
    ExperimentSpec(
        "kcopy-scaling", "holding k copies cuts the search cost of copy k+1 by about sqrt(k+1)",
        # k None: 1, 2 and 4 copies
        dict(n=_qubits(6, even=False), k=Option(None, _count("k", 0, _SCHEDULE_CAP)),
             trials=Option(101, _TRIALS)), run_kcopy_scaling),
    ExperimentSpec(
        "explicit-mint-verify", "noisy polynomial serials verify honest notes perfectly and pin the subspace",
        dict(n=_qubits(12), d=_D, eps=Option(0.25, _EPS_NOISE), beta=Option(12.0, _BETA, _table_rows),
             trials=Option(500, _TRIALS)), run_explicit_mint_verify),
    ExperimentSpec(
        "attack-d1", "degree-1 serials surrender the hidden subspace",
        dict(n=_qubits(12, even=False), eps=Option(0.1, _EPS_NOISE), beta=Option(6.0, _BETA, _table_rows),
             trials=Option(200, _TRIALS)), run_attack_d1),
    ExperimentSpec(
        "attack-adaptive", "a naive-and-trusting bank leaks one qubit per swap-out batch",
        dict(n=_qubits(16, hi=config.WIESNER_QUBIT_CAP, even=False), k=Option(24, _samples),
             trials=Option(100, _TRIALS)), run_attack_adaptive),
    ExperimentSpec(
        "attack-clone", "measure-and-resend passes 5/8 per qubit; the optimal channel reaches 3/4",
        dict(n=_qubits(8, hi=config.WIESNER_QUBIT_CAP, even=False), trials=Option(2000, _TRIALS)),
        run_attack_clone),
    ExperimentSpec(
        "keyed-contrast", "the swap-out attack gains no per-qubit signal against keyed subspace notes",
        # the attack inserts a candidate qubit, n + 1 in all; k None: its default
        dict(n=_qubits(8, hi=lambda cfg: config.qubit_cap() - 1), k=Option(None, _samples)), run_keyed_contrast),
    ExperimentSpec(
        "completeness-amplification", "threshold repetition drives completeness error down exponentially and "
        "preserves counterfeiters",
        # the reduction double-verifies notes on 2n qubits
        dict(n=_qubits(8, hi=lambda cfg: config.qubit_cap() // 2),
             eps=Option(0.2, _within("eps", "(0, 1/2)", lambda v: 0 < v < 0.5)),
             k=Option(60, _count("k", 1, lambda cfg: _NOTES_BYTES_CAP >> cfg.n + 4)),
             eta=Option(0.1, lambda cfg: _within("eta", f"(0, 1/2 - eps) at eps={cfg.eps}",
                                                 lambda v: 0 < v < 0.5 - cfg.eps)(cfg)),
             trials=Option(10_000, _TRIALS, _composite_work)), run_completeness_amplification),
    ExperimentSpec(
        "money-end-to-end", "signed hidden-subspace notes verify honestly and both forgery families reject",
        dict(n=_qubits(10), trials=Option(1000, _TRIALS)), run_money_end_to_end),
)}


def configure(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg with its experiment's defaults filled in, once every declared option passes
    its bound and no undeclared option is set; a ValueError names the option refused."""
    spec = CATALOG.get(cfg.experiment)
    if spec is None:
        raise KeyError(f"unknown experiment {cfg.experiment!r}")
    filled = replace(cfg, **{name: opt.default for name, opt in spec.options.items()
                             if getattr(cfg, name) is None})
    for name, opt in spec.options.items():
        for check in opt.checks if getattr(filled, name) is not None else ():
            refusal = check(filled)
            if refusal:
                raise ValueError(refusal)
    for name in OPTIONS:
        if name not in spec.options and getattr(cfg, name) is not None:
            raise ValueError(f"{cfg.experiment} does not read {name}; its options are {', '.join(spec.options)}")
    return filled


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutcome:
    cfg = configure(cfg)
    return CATALOG[cfg.experiment].runner(cfg)
