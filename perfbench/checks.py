"""Correctness checks the benchmark applies to hsmoney's experiment records.

Every bound here is derived from the method (the search schedule, the
query-charging rules, the threshold rule) or computed by the benchmark
itself; none is a copy of a previous run's output. Per-record checks decide
whether one operation failed; pooled checks are statistical gates over all
the records of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

# Schedule and budget constants stated by the hybrid-search claim: L =
# ceil(100 / asin(eps)) amplification draws, R = ceil(25 / delta^2 *
# (2 + ln(1/delta)) / 0.8) clean-up rounds, and mean queries at most
# 250 ln(1/delta) / (eps delta^2).
HYBRID_L_NUMERATOR = 100
HYBRID_R_FACTOR = 25
FIXED_POINT_RATE = 0.8
HYBRID_QUERY_K = 250

AMPLIFY_MIN_PASS_RATE = 0.95
Z_EXACT_MIN_RATE = 0.99
BAND_SIGMAS = 4
REDUCTION_SIGMAS = 3


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# search-amplify


def hybrid_schedule(eps: float, delta: float) -> Tuple[int, int]:
    """(L, R) of the hybrid schedule."""
    big_l = math.ceil(HYBRID_L_NUMERATOR / math.asin(eps))
    big_r = math.ceil(HYBRID_R_FACTOR / delta ** 2 * (2 + math.log(1 / delta)) / FIXED_POINT_RATE)
    return big_l, big_r


def hybrid_record_ok(rec: dict, eps: float, delta: float) -> bool:
    """T lies in [0, L]; the queries are 2T amplification calls plus one
    clean-up round per goal measurement, where a failed round costs T+2 (the
    measurement and T+1 restoring calls) and a successful one costs 1. The
    search stops at its first success, so every round fails only when all R
    rounds were used."""
    big_l, big_r = hybrid_schedule(eps, delta)
    t = rec["T"]
    if not 0 <= t <= big_l:
        return False
    failed, last = divmod(rec["queries"] - 2 * t, t + 2)
    if last == 1:
        return 0 <= failed < big_r
    return last == 0 and failed == big_r


def amplify_rounds_cap(eps: float, delta: float) -> int:
    return max(1, math.ceil(math.log(1 / delta) / (FIXED_POINT_RATE * eps)))


def amplify_record_ok(rec: dict, eps: float, delta: float) -> bool:
    """Each round is a double verification (2 queries); each restoration
    after a failed round is one C, one C inverse and one verifier query; the
    start state costs one C call. The loop stops at its first success, so
    every round is restored only when all rounds were used."""
    rounds, cap = rec["rounds"], amplify_rounds_cap(eps, delta)
    if not 1 <= rounds <= cap:
        return False
    restores = rec["queries"] - 1 - 2 * rounds
    return restores == 3 * (rounds - 1) or (restores == 3 * rounds and rounds == cap)


def hybrid_pooled(records: Sequence[dict], eps: float, delta: float) -> List[Check]:
    mean_infid = float(np.mean([1 - r["fidelity"] for r in records]))
    mean_queries = float(np.mean([r["queries"] for r in records]))
    budget = HYBRID_QUERY_K * math.log(1 / delta) / (eps * delta ** 2)
    return [
        Check("hybrid.mean_infidelity", mean_infid <= delta,
              f"{mean_infid:.4f} <= delta {delta} over {len(records)} trials"),
        Check("hybrid.mean_queries", mean_queries <= budget,
              f"{mean_queries:.0f} <= budget {budget:.0f} over {len(records)} trials"),
    ]


def amplify_pooled(records: Sequence[dict]) -> List[Check]:
    rate = sum(r["passed"] for r in records) / len(records)
    return [Check("amplify.pass_rate", rate >= AMPLIFY_MIN_PASS_RATE,
                  f"{rate:.4f} >= {AMPLIFY_MIN_PASS_RATE} over {len(records)} trials")]


# ---------------------------------------------------------------------------
# explicit-notes


def z_exact_pooled(records: Sequence[dict]) -> List[Check]:
    rate = sum(r["z_exact"] for r in records) / len(records)
    return [Check("explicit.z_exact_rate", rate >= Z_EXACT_MIN_RATE,
                  f"{rate:.4f} >= {Z_EXACT_MIN_RATE} over {len(records)} notes")]


def span_members(basis: Iterable[int]) -> np.ndarray:
    """Every F_2 combination of the basis vectors."""
    members = [0]
    for row in basis:
        members += [v ^ row for v in members]
    return np.array(members, dtype=np.int64)


def row_values(coeff_row: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate one ANF coefficient row at each point, monomial by monomial:
    monomial m is 1 at v when every variable of m is set in v."""
    monomials = np.flatnonzero(coeff_row).astype(np.int64)
    hits = (points[:, None] & monomials[None, :]) == monomials[None, :]
    return hits.sum(axis=1) & 1


def honest_rows_vanish(coeffs: np.ndarray, noise_positions: Sequence[int], members: np.ndarray) -> bool:
    noisy = set(noise_positions)
    return all(
        not row_values(row, members).any()
        for i, row in enumerate(coeffs) if i not in noisy
    )


def noise_count_ok(m: int, eps: float, noise_positions: Sequence[int]) -> bool:
    return len(set(noise_positions)) == math.floor(Fraction(str(eps)) * m)


# ---------------------------------------------------------------------------
# reverify


def threshold_rule(k: int, eps: float, eta: float) -> int:
    """Accept a composite note when at least ceil((1 - eps - eta) k) of its k
    sub-notes accept."""
    return math.ceil((1 - Fraction(str(eps)) - Fraction(str(eta))) * k)


def honest_rejection_rate(k: int, eps: float, threshold: int) -> float:
    """P[Bin(k, 1 - eps) < threshold], summed over exact rationals."""
    p = 1 - Fraction(str(eps))
    return float(sum(math.comb(k, j) * p ** j * (1 - p) ** (k - j) for j in range(threshold)))


def rejection_band_ok(rejects: int, trials: int, k: int, eps: float, eta: float) -> Tuple[bool, str]:
    exact = honest_rejection_rate(k, eps, threshold_rule(k, eps, eta))
    band = BAND_SIGMAS * math.sqrt(exact * (1 - exact) / trials)
    error = rejects / trials
    return abs(error - exact) <= band, f"{error:.4f} within {exact:.4f} +- {band:.4f} over {trials} verifies"


def reduction_ok(rec: dict, eps: float, eta: float) -> Tuple[bool, str]:
    rate, trials = rec["single_rate"], rec["trials"]
    floor = (1 - 2 * eps - 2 * eta) * rec["delta_prime"]
    sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / trials)
    return rate >= floor - REDUCTION_SIGMAS * sigma, f"{rate:.4f} >= {floor:.4f} - {REDUCTION_SIGMAS} sigma over {trials} trials"


# ---------------------------------------------------------------------------
# mint-verify


def money_failures(summary: dict) -> int:
    """Notes that broke a property: each honest reject, accepted altered
    serial and accepted junk state counts against one note."""
    notes = summary["trials"]
    broken = (
        (notes - summary["honest_accepts"])
        + (notes - summary["serial_forgery_rejects"])
        + (notes - summary["junk_forgery_rejects"])
    )
    return min(notes, broken)
