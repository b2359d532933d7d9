"""The two-dimensional search engine against the dense reference loops.

Every case runs twice from the same seed: once as the program runs it, once
with `dense_reference` swapped in for `amplitude_amplify` and
`measure_restore` (in `search` and in `advlab`, which imports them by name).
Both runs must report the same integers and flags, charge every counter
alike, leave the generator in the same state (so they drew the same number
of variates) and end in states whose amplitudes agree within 1e-12.
"""

import math
import warnings

import numpy as np
import pytest

import dense_reference
from hsmoney import advlab, config, f2lin, hsmini, search
from hsmoney.qsim import (
    CountedOracle,
    Projector,
    fidelity_to_goal,
    haar_random_state,
    sqnorm,
    subspace_state,
)

AMP_TOL = 1e-12


def _run_both(monkeypatch, seed, fn):
    """fn(rng) -> (state, facts) with the engine and with the dense loops."""
    runs = []
    for dense in (False, True):
        rng = np.random.default_rng(seed)
        with monkeypatch.context() as m:
            if dense:
                for mod in (search, advlab):
                    m.setattr(mod, "amplitude_amplify", dense_reference.amplitude_amplify)
                    m.setattr(mod, "measure_restore", dense_reference.measure_restore)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                state, facts = fn(rng)
        runs.append((state, facts, rng.bit_generator.state))
    (engine_state, engine_facts, engine_rng), (dense_state, dense_facts, dense_rng) = runs
    assert engine_facts == dense_facts
    assert engine_rng == dense_rng
    assert np.abs(engine_state.amps - dense_state.amps).max() <= AMP_TOL
    return engine_facts


def _counters(p: search.SearchProblem) -> dict:
    return {"goal": p.goal_projector.charge_to.query_count, "init": p.init_oracle.query_count}


def _grover_counts(eps: float):
    L = search.SearchParams(eps=eps, delta=0.5).L
    return sorted({0, 1, 2, 7, L // 3, L})


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("overlap", [0.05, 0.3, 0.7, 1.0])
def test_amplify_planted_mask_goal(monkeypatch, n, overlap):
    for T in _grover_counts(overlap):
        def fn(rng):
            p = search.planted_problem(n, overlap, rng)
            return search.amplitude_amplify(p, T), _counters(p)

        assert _run_both(monkeypatch, 1000 + n, fn) == {"goal": T, "init": T}


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("overlap", [0.05, 0.3, 0.7, 1.0])
def test_measure_restore_planted_mask_goal(monkeypatch, n, overlap):
    budget = math.ceil(math.log(1 / 0.05) / (config.FIXED_POINT_RATE * overlap ** 2))

    def fn(rng):
        p = search.planted_problem(n, overlap, rng)
        s, rounds, hit = search.measure_restore(
            p.goal_projector, p.init_state, budget, rng, charge_to=p.init_oracle
        )
        return s, {"rounds": rounds, "hit": hit, **_counters(p)}

    for seed in range(5):
        facts = _run_both(monkeypatch, 2000 + 10 * n + seed, fn)
        assert facts["goal"] == facts["rounds"]
        assert facts["init"] == facts["rounds"] - facts["hit"]


def _doubled_problem(rng, n, counterfeiter):
    scheme = hsmini.HsMiniScheme(hsmini.OracleBundle(n, rng))
    note = scheme.bank(rng)
    target = scheme.target_state(note.serial)
    c = counterfeiter(target)
    goal = Projector.onto_state(target.tensor(target), charge_to=CountedOracle("U_goal"))
    return search.SearchProblem(c.apply(note.state), goal)


COUNTERFEITERS = {
    "planted": lambda target: advlab.PlantedCloner(target, 0.2),
    "junk": advlab.JunkEmitter,
}


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", sorted(COUNTERFEITERS))
def test_doubled_register_state_goal(monkeypatch, n, kind):
    for T in (0, 1, 3, 12):
        def amplify(rng):
            p = _doubled_problem(rng, n, COUNTERFEITERS[kind])
            return search.amplitude_amplify(p, T), _counters(p)

        _run_both(monkeypatch, 3000 + n, amplify)

    def restore(rng):
        p = _doubled_problem(rng, n, COUNTERFEITERS[kind])
        s, rounds, hit = search.measure_restore(p.goal_projector, p.init_state, 40, rng)
        return s, {"rounds": rounds, "hit": hit, **_counters(p)}

    for seed in range(4):
        _run_both(monkeypatch, 3100 + 10 * n + seed, restore)


@pytest.mark.parametrize("eps", [0.1, 0.3, 1.0])
def test_fixed_point_search(monkeypatch, eps):
    def fn(rng):
        p = search.planted_problem(8, eps, rng)
        return search.fixed_point_search(p, 30, rng), _counters(p)

    for seed in range(6):
        _run_both(monkeypatch, 4000 + seed, fn)


@pytest.mark.parametrize("n,eps,delta", [(6, 0.1, 0.2), (8, 0.05, 0.2), (10, 0.05, 0.3)])
def test_hybrid_search(monkeypatch, n, eps, delta):
    def fn(rng):
        p = search.planted_problem(n, eps, rng)
        trace: dict = {}
        out, queries = search.hybrid_search(p, search.SearchParams(eps=eps, delta=delta), rng, trace=trace)
        return out, {"queries": queries, **trace, **_counters(p)}

    for seed in range(6):
        _run_both(monkeypatch, 5000 + seed, fn)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("kind", sorted(COUNTERFEITERS))
@pytest.mark.parametrize("eps,delta", [(0.2, 0.05), (0.2, 0.9)])  # fixed-point, hybrid
def test_amplify_counterfeiter(monkeypatch, n, kind, eps, delta):
    def fn(rng):
        scheme = hsmini.HsMiniScheme(hsmini.OracleBundle(n, rng))
        note = scheme.bank(rng)
        c = COUNTERFEITERS[kind](scheme.target_state(note.serial))
        res = advlab.amplify_counterfeiter(c, scheme, note, eps, delta, rng)
        facts = {
            "queries": res.queries,
            "rounds": res.rounds,
            "converged": res.converged,
            "c": c.query_count,
        }
        return res.state, facts

    for seed in range(3):
        _run_both(monkeypatch, 6000 + seed, fn)


@pytest.mark.parametrize("kind", sorted(COUNTERFEITERS))
def test_amplify_counterfeiter_state(monkeypatch, kind):
    # the soundness reduction's amplification: measure/restore rounds on a doubled
    # counterfeit, for the fixed-point budget at claimed pass rate 0.2 and delta 0.05
    def fn(rng):
        target = haar_random_state(4, rng)
        c = COUNTERFEITERS[kind](target)
        doubled = c.apply(target)
        goal = Projector.onto_state(target.tensor(target))
        budget = math.ceil(search.fixed_point_rounds(0.2, 0.05))
        s, rounds, converged = search.measure_restore(goal, doubled, budget, rng)
        return s, {"rounds": rounds, "converged": converged}

    for seed in range(4):
        _run_both(monkeypatch, 7000 + seed, fn)


@pytest.mark.parametrize("target_kind", ["haar", "subspace"])
def test_clone_by_search(monkeypatch, target_kind):
    def fn(rng):
        if target_kind == "haar":
            target, guess = haar_random_state(6, rng), 2.0 ** -3
        else:
            target, guess = subspace_state(f2lin.random_subspace(8, 4, rng)), 2.0 ** -2
        s, queries = advlab.clone_by_search(target, rng, guess)
        return s, {"queries": queries}

    for seed in range(4):
        _run_both(monkeypatch, 8000 + seed, fn)


def test_long_amplification_follows_the_rotation_formula():
    eps = 0.05
    L = search.SearchParams(eps=eps, delta=0.2).L
    p = search.planted_problem(10, eps, np.random.default_rng(9000))
    out = search.amplitude_amplify(p, L)
    want = abs(math.sin((2 * L + 1) * math.asin(eps)))
    assert fidelity_to_goal(out, p.goal_projector) == pytest.approx(want, abs=1e-9)
    assert abs(math.sqrt(sqnorm(out.amps)) - 1) <= 1e-12
