"""Amplitude amplification, fixed-point search, hybrid schedule, lattice count."""

import math

import numpy as np
import pytest

from hsmoney import config
from hsmoney.qsim import PhaseOracle, Projector, StateVector, fidelity_to_goal
from hsmoney.search import (
    SearchParams,
    SearchProblem,
    amplitude_amplify,
    cleanup_rounds,
    count_near_lattice,
    fixed_point_rounds,
    fixed_point_search,
    hybrid_draws,
    hybrid_search,
    planted_problem,
)


def test_amplify_rotation_formula_exact():
    rng = np.random.default_rng(40)
    for overlap in (0.1, 0.3, 0.5, 0.9):
        theta = math.asin(overlap)
        p = planted_problem(6, overlap, rng)
        for T in range(0, 8):
            out = amplitude_amplify(p, T)
            want = abs(math.sin((2 * T + 1) * theta))
            assert fidelity_to_goal(out, p.goal_projector) == pytest.approx(want, abs=1e-9)


def test_amplify_half_overlap_one_iteration_exact():
    # sin(theta) = 1/2 -> sin(3 theta) = 1: a single iteration lands in G
    rng = np.random.default_rng(41)
    p = planted_problem(6, 0.5, rng)
    out = amplitude_amplify(p, 1)
    assert fidelity_to_goal(out, p.goal_projector) == pytest.approx(1.0, abs=1e-9)


def test_amplify_zero_iterations_returns_init():
    rng = np.random.default_rng(42)
    p = planted_problem(5, 0.3, rng)
    out = amplitude_amplify(p, 0)
    assert np.allclose(out.amps, p.init_state.amps)


def test_grover_special_case_n2():
    # uniform start, one marked item out of 4: T=1 finds it with certainty
    marked = 2
    goal = PhaseOracle.from_indices(2, [marked])
    p = SearchProblem(StateVector.uniform(2), Projector.from_oracle(goal))
    out = amplitude_amplify(p, 1)
    assert abs(out.amps[marked]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_amplify_query_accounting():
    rng = np.random.default_rng(43)
    p = planted_problem(5, 0.4, rng)
    amplitude_amplify(p, 7)
    assert p.goal_projector.charge_to.query_count == 7
    assert p.init_oracle.query_count == 7
    assert p.queries() == 14


def test_fixed_point_trivial_in_goal():
    rng = np.random.default_rng(44)
    p = planted_problem(5, 1.0, rng)
    out = fixed_point_search(p, 1, rng)
    assert fidelity_to_goal(out, p.goal_projector) == pytest.approx(1.0, abs=1e-9)


def test_fixed_point_reaches_target_within_calibrated_rounds():
    # eps = 0.3, delta = 0.05: mean fidelity at T = ceil(ln(1/delta)/(c eps^2))
    # must reach 1 - delta over 500 trials
    eps, delta = 0.3, 0.05
    T = math.ceil(math.log(1 / delta) / (config.FIXED_POINT_RATE * eps ** 2))
    rng = np.random.default_rng(45)
    trials = 500
    fids = np.empty(trials)
    for i in range(trials):
        p = planted_problem(8, eps, rng)
        out = fixed_point_search(p, T, rng)
        fids[i] = fidelity_to_goal(out, p.goal_projector)
    assert fids.mean() >= 1 - delta


def test_fixed_point_monotone_in_rounds():
    eps = 0.3
    rng = np.random.default_rng(46)
    trials = 400
    points = [2, 6, 12, 22]
    means = []
    sems = []
    for T in points:
        fids = np.empty(trials)
        for i in range(trials):
            p = planted_problem(6, eps, rng)
            out = fixed_point_search(p, T, rng)
            fids[i] = fidelity_to_goal(out, p.goal_projector)
        means.append(fids.mean())
        sems.append(fids.std(ddof=1) / math.sqrt(trials))
    for k in range(len(points) - 1):
        noise = 2 * math.hypot(sems[k], sems[k + 1])
        assert means[k + 1] >= means[k] - noise


def test_hybrid_parameter_hypothesis():
    rng = np.random.default_rng(47)
    p = planted_problem(5, 0.3, rng)
    with pytest.raises(ValueError):
        hybrid_search(p, SearchParams(eps=0.3, delta=0.4), rng)


def test_hybrid_degenerate_promise():
    rng = np.random.default_rng(48)
    p = planted_problem(5, 1.0, rng)
    out, queries = hybrid_search(p, SearchParams(eps=1.0, delta=0.5), rng)
    assert fidelity_to_goal(out, p.goal_projector) == pytest.approx(1.0, abs=1e-9)
    assert queries == 1


def test_hybrid_mean_infidelity_small_instance():
    eps, delta = 0.1, 0.2
    rng = np.random.default_rng(49)
    trials = 100
    infid = np.empty(trials)
    for i in range(trials):
        p = planted_problem(8, eps, rng)
        out, _ = hybrid_search(p, SearchParams(eps=eps, delta=delta), rng)
        infid[i] = 1 - fidelity_to_goal(out, p.goal_projector)
    assert infid.mean() <= delta


def test_hybrid_query_accounting_consistency():
    # reported queries equal the oracle counters' growth
    eps, delta = 0.1, 0.2
    rng = np.random.default_rng(50)
    p = planted_problem(8, eps, rng)
    before = p.queries()
    _, reported = hybrid_search(p, SearchParams(eps=eps, delta=delta), rng)
    assert reported == p.queries() - before
    assert reported > 0


def test_search_params_schedule_values():
    sp = SearchParams(eps=0.05, delta=0.2)
    assert sp.xi == pytest.approx(math.asin(0.05))
    assert sp.L == math.ceil(100 / math.asin(0.05))
    assert sp.R == math.ceil(25 / 0.04 * (2 + math.log(5)) / 0.8)


@pytest.mark.parametrize("eps, delta", [(0.05, 1e-300), (0.05, 5e-324), (5e-324, 0.2)])
def test_search_params_refuse_an_endless_schedule(eps, delta):
    # delta ** 2 underflows to 0, or 1 / arcsin(eps) overflows to inf
    with pytest.raises(ValueError, match="endless schedule"):
        SearchParams(eps=eps, delta=delta)


def test_schedule_lengths_are_floats_that_overflow_to_inf():
    assert fixed_point_rounds(0.3 ** 2, 0.05) == math.log(1 / 0.05) / (config.FIXED_POINT_RATE * 0.3 ** 2)
    assert fixed_point_rounds(1e-300 ** 2, 0.05) == math.inf  # c eps^2 underflows
    assert fixed_point_rounds(1e-160 ** 2, 0.05) == math.inf  # the quotient overflows
    assert cleanup_rounds(1e-300) == math.inf
    assert hybrid_draws(5e-324) == math.inf
    sp = SearchParams(eps=0.05, delta=0.2)
    assert (sp.L, sp.R) == (math.ceil(hybrid_draws(0.05)), math.ceil(cleanup_rounds(0.2)))


def test_count_near_lattice_examples():
    assert count_near_lattice(10, 100.0, 0.1, 0.05) == 1
    assert count_near_lattice(50, 7.0, 0.0, 0.3) == 0
    assert count_near_lattice(50, 7.0, 0.0, 0.0) == 0  # strict inequality


def test_count_near_lattice_bound_random():
    rng = np.random.default_rng(51)
    for _ in range(10_000):
        L = int(rng.integers(0, 60))
        beta = float(rng.uniform(0.1, 20.0))
        eta = float(rng.uniform(0.0, 3.0))
        gamma = float(rng.uniform(-10.0, 10.0))
        cnt = count_near_lattice(L, beta, eta, gamma)
        assert cnt <= (L / beta + 1) * (2 * eta + 1) + 1e-9


def test_count_near_lattice_exhaustive_reference():
    # dense n-scan oracle on a few fixed cases
    rng = np.random.default_rng(52)
    for _ in range(50):
        L = int(rng.integers(0, 30))
        beta = float(rng.uniform(0.5, 8.0))
        eta = float(rng.uniform(0.0, 2.0))
        gamma = float(rng.uniform(-5.0, 5.0))
        want = 0
        for T in range(L + 1):
            hit = any(
                abs(T - (beta * n + gamma)) < eta
                for n in range(-40, int((L + abs(gamma)) / beta) + 41)
            )
            want += hit
        assert count_near_lattice(L, beta, eta, gamma) == want
