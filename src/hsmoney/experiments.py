"""Seeded, reproducible experiment catalog.

Every experiment takes an ExperimentConfig, fans trials out over per-trial
generators derived by splitting the root seed, and returns JSON-ready trial
records plus a summary with a pass/fail verdict. Identical (config, seed)
pairs produce byte-identical reports regardless of worker count, because
records are keyed and emitted in trial order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import advlab, config, f2lin, hsmini, money, polyhide, privkey, search
from .qsim import StateVector, fidelity_to_goal, hadamard_all, haar_random_state, subspace_state


@dataclass
class ExperimentConfig:
    experiment: str
    n: Optional[int] = None
    d: int = 4
    eps: Optional[float] = None
    beta: Optional[float] = None
    delta: Optional[float] = None
    k: Optional[int] = None
    eta: Optional[float] = None
    trials: Optional[int] = None
    seed: int = 0
    scheme: str = "hsmini"
    target: str = "haar"
    workers: int = 1

    def resolved(self, defaults: Dict) -> "ExperimentConfig":
        merged = asdict(self)
        for key, val in defaults.items():
            if merged.get(key) is None:
                merged[key] = val
        return ExperimentConfig(**merged)


@dataclass
class ExperimentOutcome:
    records: List[dict]
    summary: dict
    ok: bool


@dataclass
class ExperimentSpec:
    id: str
    claim: str
    defaults: Dict
    runner: Callable[[ExperimentConfig], ExperimentOutcome]


def _map_trials(
    cfg: ExperimentConfig, fn: Callable[[ExperimentConfig, int, np.random.Generator], dict], trials: int
) -> List[dict]:
    """fn(cfg, i, rng) for every trial i, in trial order; trial i draws from
    the i-th child of the root seed, so records match at any worker count.
    The trial function, the config and the seed sequence all pickle."""
    seqs = np.random.SeedSequence(cfg.seed).spawn(trials)
    jobs = [(fn, cfg, i, seq) for i, seq in enumerate(seqs)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(_run_trial, jobs, chunksize=max(1, trials // (4 * cfg.workers))))
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
        note = polyhide.bank_explicit(cfg.n, cfg.d, cfg.eps, cfg.beta, rng)
        return polyhide.verify_explicit(note, rng)
    if cfg.scheme == "keyed":
        bank = privkey.KeyedSubspaceBank(cfg.n, rng.bytes(16))
        serial, state = bank.mint(rng)
        ok, _ = bank.verify(serial, state, rng)
        return ok
    if cfg.scheme == "wiesner":
        bank, note = privkey.wiesner_bank(cfg.n, rng)
        ok, _ = bank.verify(note.serial, note.qubits, rng)
        return ok
    raise ValueError(f"unknown scheme {cfg.scheme!r}")


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
    t_target = math.ceil(math.log(1 / cfg.delta) / (config.FIXED_POINT_RATE * cfg.eps ** 2))
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
    res = advlab.clone_run(target, rng, overlap_guess=guess)
    return {"trial": index, "queries": res.queries, "fidelity": float(res.fidelity)}


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
        rep = advlab.kcopy_experiment(cfg.n, k, rng, trials=cfg.trials)
        medians.append(rep.median_queries)
        records.append(
            {
                "k": k,
                "median_queries": rep.median_queries,
                "reference": (math.pi / 4) * 2 ** (cfg.n / 2) / math.sqrt(k + 1),
                "queries": rep.queries,
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
    samples = cfg.k or privkey.default_samples_per_candidate(cfg.n)
    ok = rate >= 0.9 and queries == 4 * cfg.n * samples
    return ExperimentOutcome(
        records,
        {"n": cfg.n, "samples_per_candidate": samples, "recovery_rate": rate,
         "queries_per_attack": queries},
        ok,
    )


# ---------------------------------------------------------------------------
# attack-clone


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
    sigma = math.sqrt(max(want * (1 - want), 1e-12) / cfg.trials)
    resend_ok = abs(emp - want) <= 4 * sigma + 1e-6
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
# catalog


CATALOG: Dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    CATALOG[spec.id] = spec


_register(ExperimentSpec(
    "verify-roundtrip",
    "honest mint-then-verify accepts every time (perfect completeness)",
    {"n": 10, "trials": 100, "eps": 0.25, "beta": 12.0},
    run_verify_roundtrip,
))
_register(ExperimentSpec(
    "duality-check",
    "the full Hadamard transform maps a money state to its dual's state",
    {"n": 12, "trials": 1000},
    run_duality_check,
))
_register(ExperimentSpec(
    "verifier-projector",
    "the project/transform/project/transform circuit equals the rank-1 projector",
    {"trials": 50},
    run_verifier_projector,
))
_register(ExperimentSpec(
    "hybrid-search-budget",
    "randomized amplification + fixed-point clean-up reaches 1-delta within "
    "K log(1/delta)/(eps delta^2) queries",
    {"n": 10, "eps": 0.05, "delta": 0.2, "trials": 200},
    run_hybrid_budget,
))
_register(ExperimentSpec(
    "fixed-point-monotone",
    "goal fidelity is monotone in rounds and reaches 1-delta within "
    "ln(1/delta)/(c eps^2) rounds",
    {"n": 8, "eps": 0.3, "delta": 0.05, "trials": 500},
    run_fixed_point_monotone,
))
_register(ExperimentSpec(
    "amplify-counterfeiter",
    "a weak counterfeiter is boosted to near-perfect double-verification",
    {"n": 8, "eps": 0.2, "delta": 0.05, "trials": 200},
    run_amplify_counterfeiter,
))
_register(ExperimentSpec(
    "innerprod-progress",
    "per-query drop of the cross-oracle inner product stays within 4 sqrt(eps)",
    {"n": 16, "trials": 60},
    run_innerprod_progress,
))
_register(ExperimentSpec(
    "clone-search",
    "preparing a verifier's target by search costs about (pi/4) / overlap queries",
    {"n": 8, "trials": 101, "target": "haar"},
    run_clone_search,
))
_register(ExperimentSpec(
    "kcopy-scaling",
    "holding k copies cuts the search cost of copy k+1 by about sqrt(k+1)",
    {"n": 6, "trials": 101},
    run_kcopy_scaling,
))
_register(ExperimentSpec(
    "explicit-mint-verify",
    "noisy polynomial serials verify honest notes perfectly and pin the subspace",
    {"n": 12, "d": 4, "eps": 0.25, "beta": 12.0, "trials": 500},
    run_explicit_mint_verify,
))
_register(ExperimentSpec(
    "attack-d1",
    "degree-1 serials surrender the hidden subspace",
    {"n": 12, "eps": 0.1, "beta": 6.0, "trials": 200},
    run_attack_d1,
))
_register(ExperimentSpec(
    "attack-adaptive",
    "a naive-and-trusting bank leaks one qubit per swap-out batch",
    {"n": 16, "k": 24, "trials": 100},
    run_attack_adaptive,
))
_register(ExperimentSpec(
    "attack-clone",
    "measure-and-resend passes 5/8 per qubit; the optimal channel reaches 3/4",
    {"n": 8, "trials": 2000},
    run_attack_clone,
))
_register(ExperimentSpec(
    "keyed-contrast",
    "the swap-out attack gains no per-qubit signal against keyed subspace notes",
    {"n": 8, "trials": 1},
    run_keyed_contrast,
))
_register(ExperimentSpec(
    "completeness-amplification",
    "threshold repetition drives completeness error down exponentially and "
    "preserves counterfeiters",
    {"n": 8, "eps": 0.2, "k": 60, "eta": 0.1, "trials": 10_000},
    run_completeness_amplification,
))
_register(ExperimentSpec(
    "money-end-to-end",
    "signed hidden-subspace notes verify honestly and both forgery families reject",
    {"n": 10, "trials": 1000},
    run_money_end_to_end,
))


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutcome:
    spec = CATALOG.get(cfg.experiment)
    if spec is None:
        raise KeyError(f"unknown experiment {cfg.experiment!r}")
    resolved = cfg.resolved(spec.defaults)
    _validate(resolved)
    return spec.runner(resolved)


# eps is a noise rate where serials are noisy polynomial systems and the base
# completeness error in completeness-amplification; elsewhere it is an
# overlap or a pass rate. NaN fails every comparison.
_NOISE_RATE = ("[0, 1)", lambda eps: 0 <= eps < 1)
_EPS_RANGES: Dict[str, tuple] = {
    "verify-roundtrip": _NOISE_RATE,
    "explicit-mint-verify": _NOISE_RATE,
    "attack-d1": _NOISE_RATE,
    "completeness-amplification": ("(0, 1/2)", lambda eps: 0 < eps < 0.5),
}
_EPS_OVERLAP = ("(0, 1]", lambda eps: 0 < eps <= 1)

# Longest search schedule an eps promise may set: fixed-point rounds run one
# at a time in Python, and the hybrid draws T from {0..L} in int64.
_SCHEDULE_CAP = 1 << 24


def _schedule_steps(cfg: ExperimentConfig) -> float:
    """The longest schedule cfg.eps sets (fixed-point rounds, or the hybrid's
    L), as a float that overflows to inf instead of raising; 0 where eps sets
    no schedule."""
    if cfg.experiment == "hybrid-search-budget":
        return config.HYBRID_L_NUMERATOR / math.asin(cfg.eps)
    if cfg.experiment == "fixed-point-monotone":
        return math.log(1 / cfg.delta) / config.FIXED_POINT_RATE / cfg.eps / cfg.eps
    if cfg.experiment == "amplify-counterfeiter":
        # fixed-point rounds at fidelity sqrt(eps), or the hybrid backend's L
        return max(math.log(1 / cfg.delta) / config.FIXED_POINT_RATE / cfg.eps,
                   config.HYBRID_L_NUMERATOR / math.asin(math.sqrt(cfg.eps)))
    return 0.0


# k is the swap-out attacks' sample count per candidate there
_K_SAMPLES = ("attack-adaptive", "keyed-contrast")


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.n is not None and cfg.n > config.qubit_cap():
        raise ValueError(f"n={cfg.n} exceeds the simulator cap {config.qubit_cap()}")
    if cfg.n is not None and cfg.n < 2:
        raise ValueError("n must be at least 2")
    if cfg.trials is not None and cfg.trials < 1:
        raise ValueError("trials must be positive")
    if cfg.delta is not None and not 0 < cfg.delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    interval, in_range = _EPS_RANGES.get(cfg.experiment, _EPS_OVERLAP)
    if cfg.eps is not None and not in_range(cfg.eps):
        raise ValueError(f"eps must lie in {interval}, got {cfg.eps}")
    if cfg.eps is not None and not _schedule_steps(cfg) <= _SCHEDULE_CAP:
        raise ValueError(
            f"eps={cfg.eps} is too small: with delta={cfg.delta} it sets a search "
            f"schedule of {_schedule_steps(cfg):.3g} steps, above the cap of {_SCHEDULE_CAP}"
        )
    if cfg.experiment in _K_SAMPLES and cfg.k is not None and cfg.k < 1:
        raise ValueError(f"k (samples per candidate) must be at least 1, got {cfg.k}")
