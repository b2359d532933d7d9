"""The benchmark's workloads and the runs made of them.

A workload is a fixed round of catalog experiments, each run through
`experiments.run_experiment` exactly as `hsmoney run` runs it, minus the
printing. Round r of a run with seed s runs every experiment at seed
s + offset + 10000 r, so a run is a deterministic function of its seed and a
longer run only adds rounds. Timed rounds run at one worker. A run starts
with a short untimed warm-up round, then always makes a workload's
`gate_rounds` rounds, and its statistical gates pool exactly those, so their
verdict does not depend on how fast the host is. An untraced run then
repeats rounds until the next one would overrun the time given; a traced run
first runs round 0 untraced, pooled (where the workload has pool workers)
and traced, then fills the rest of its time with untraced rounds.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from hsmoney import experiments, polyhide
from hsmoney.experiments import ExperimentConfig, ExperimentOutcome

from perfbench import checks
from perfbench.checks import Check
from perfbench.tracing import PER_LAYER, Tracer

ROUND_SEED_STRIDE = 10_000
WARMUP_DIVISOR = 8  # a warm-up round runs 1/8 of each experiment's trials
WARMUP_INDEX = 1000  # its round index, far beyond the rounds a run reaches
EXPLICIT_SAMPLE_NOTES = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Part:
    """One catalog experiment of a round."""

    experiment: str
    params: Dict[str, float]
    trials: int
    seed_offset: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    parts: Tuple[Part, ...]
    default_seed: int  # the acceptance test's seed
    gate_rounds: int  # rounds every run makes and its statistical gates pool
    # Worker count of the pooled round that a traced run times against the
    # serial one; 1 where there is none. Timed rounds always run at one
    # worker: a pool that needs every core of a shared host measures the
    # host's other tenants as much as the program.
    pool_workers: int = 1


# The default seeds reproduce the acceptance tests' seeds in round 0: C03 and
# C05 (103, 105), C08 (108), C13 (113) and C14 (114).
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "search-amplify",
            (
                Part("hybrid-search-budget", {"n": 10, "eps": 0.05, "delta": 0.2}, trials=60),
                Part("amplify-counterfeiter", {"n": 8, "eps": 0.2, "delta": 0.05}, trials=40,
                     seed_offset=2),
            ),
            default_seed=103,
            gate_rounds=4,
        ),
        Workload(
            "explicit-notes",
            (Part("explicit-mint-verify", {"n": 12, "d": 4, "eps": 0.25, "beta": 12.0}, trials=40),),
            default_seed=108,
            gate_rounds=5,
            pool_workers=2,
        ),
        # 4000 composite verifies of one note take about 80% of a round; the
        # rest is the 200-trial reduction on fresh notes. Two rounds pool 8000
        # verifies, which puts a program accepting at 41 or 43 of 60 more than
        # 4 of its own sigma outside the 4-sigma band.
        Workload(
            "reverify",
            (Part("completeness-amplification", {"n": 8, "eps": 0.2, "k": 60, "eta": 0.1}, trials=4000),),
            default_seed=113,
            gate_rounds=2,
        ),
        Workload(
            "mint-verify",
            (Part("money-end-to-end", {"n": 16}, trials=64),),
            default_seed=114,
            gate_rounds=1,
        ),
    )
}


def round_configs(wl: Workload, seed: int, index: int, workers: int = 1,
                  divisor: int = 1) -> List[ExperimentConfig]:
    return [
        ExperimentConfig(
            experiment=part.experiment,
            trials=max(1, part.trials // divisor),
            seed=seed + part.seed_offset + ROUND_SEED_STRIDE * index,
            workers=workers,
            **part.params,
        )
        for part in wl.parts
    ]


@dataclass
class Round:
    configs: List[ExperimentConfig]
    outcomes: List[Optional[ExperimentOutcome]]  # None where the experiment raised
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int


def _cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024  # ru_maxrss is in KiB on Linux


def operation_failures(cfg: ExperimentConfig, outcome: Optional[ExperimentOutcome]) -> int:
    """Operations of one experiment run that raised or broke a per-operation
    property. Every experiment here has cfg.trials operations."""
    if outcome is None:
        return cfg.trials
    if cfg.experiment == "completeness-amplification":
        return 0
    if cfg.experiment == "money-end-to-end":
        return checks.money_failures(outcome.summary)
    if cfg.experiment == "hybrid-search-budget":
        broken = sum(not checks.hybrid_record_ok(r, cfg.eps, cfg.delta) for r in outcome.records)
    elif cfg.experiment == "amplify-counterfeiter":
        broken = sum(not checks.amplify_record_ok(r, cfg.eps, cfg.delta) for r in outcome.records)
    elif cfg.experiment == "explicit-mint-verify":
        broken = sum(not r["accepted"] for r in outcome.records)
    else:
        raise ValueError(f"no operation checks for {cfg.experiment!r}")
    return broken + cfg.trials - len(outcome.records)


def run_round(wl: Workload, seed: int, index: int, workers: int = 1, divisor: int = 1) -> Round:
    cfgs = round_configs(wl, seed, index, workers, divisor)
    outcomes: List[Optional[ExperimentOutcome]] = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for cfg in cfgs:
        try:
            outcomes.append(experiments.run_experiment(cfg))
        except Exception:  # counted as failed operations; the run goes on
            traceback.print_exc(file=sys.stderr)
            outcomes.append(None)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    failed = sum(operation_failures(c, o) for c, o in zip(cfgs, outcomes))
    return Round(cfgs, outcomes, wall, cpu, sum(c.trials for c in cfgs), failed)


# ---------------------------------------------------------------------------
# checks over a whole run


def _explicit_sample_checks(cfg: ExperimentConfig, seed: int) -> List[Check]:
    """Notes drawn by the benchmark: outside the noise positions, every
    primal row vanishes on A and every dual row on A-perp (evaluated monomial
    by monomial), the noise count is floor(eps m), and A lies in Z."""
    rng = np.random.default_rng([seed, 1])
    n = cfg.n
    points = np.arange(1 << n, dtype=np.int64)
    ok = True
    for _ in range(EXPLICIT_SAMPLE_NOTES):
        note, secret = polyhide.bank_explicit_with_secret(n, cfg.d, cfg.eps, cfg.beta, rng)
        members = checks.span_members(secret.basis)
        in_a = np.zeros(1 << n, dtype=np.bool_)
        in_a[members] = True
        # y is in A-perp when y . x = 0 for every basis vector x of A
        perp = np.ones(1 << n, dtype=np.bool_)
        for x in secret.basis:
            perp &= np.bitwise_count(points & x) % 2 == 0
        for system, space in ((note.primal_system, in_a), (note.dual_system, perp)):
            ok &= checks.noise_count_ok(system.m, cfg.eps, system.noise_positions)
            ok &= checks.honest_rows_vanish(system.coeffs, system.noise_positions, np.flatnonzero(space))
            ok &= bool(polyhide.zset_mask(system)[space].all())
    return [Check("explicit.sample_rows_vanish", ok,
                  f"{EXPLICIT_SAMPLE_NOTES} notes drawn from seed {seed}, both systems")]


def run_checks(wl: Workload, seed: int, rounds: List[Round]) -> List[Check]:
    """Statistical gates and sample checks over the first wl.gate_rounds
    rounds of a run."""
    rounds = rounds[:wl.gate_rounds]
    out: List[Check] = []
    for j, part in enumerate(wl.parts):
        done = [(r.configs[j], r.outcomes[j]) for r in rounds if r.outcomes[j] is not None]
        if not done:
            out.append(Check(f"{part.experiment}.ran", False, "every run of it raised"))
            continue
        cfg = done[0][0]
        records = [rec for _, o in done for rec in o.records]
        if part.experiment == "hybrid-search-budget":
            out += checks.hybrid_pooled(records, cfg.eps, cfg.delta)
        elif part.experiment == "amplify-counterfeiter":
            out += checks.amplify_pooled(records)
        elif part.experiment == "explicit-mint-verify":
            out += checks.z_exact_pooled(records)
            out += _explicit_sample_checks(cfg, seed)
        elif part.experiment == "completeness-amplification":
            completeness = [rec for rec in records if rec["kind"] == "completeness"]
            rule = checks.threshold_rule(cfg.k, cfg.eps, cfg.eta)
            out.append(Check("reverify.threshold", all(rec["threshold"] == rule for rec in completeness),
                             f"every composite note accepts at {rule} of {cfg.k}"))
            ok, detail = checks.rejection_band_ok(
                sum(rec["rejects"] for rec in completeness), sum(rec["trials"] for rec in completeness),
                cfg.k, cfg.eps, cfg.eta)
            out.append(Check("reverify.rejection_band", ok, detail))
            for rec in records:
                if rec["kind"] == "reduction":
                    ok, detail = checks.reduction_ok(rec, cfg.eps, cfg.eta)
                    out.append(Check("reverify.reduction", ok, detail))
    return out


def _same_records(a: Round, b: Round) -> bool:
    return all(
        x is not None and y is not None and x.records == y.records
        for x, y in zip(a.outcomes, b.outcomes)
    )


# ---------------------------------------------------------------------------
# runs


def environment() -> Dict[str, str]:
    """Thread settings inherited from the caller, recorded with each run."""
    env = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
    env.update(cpus=str(os.cpu_count()), python=platform.python_version(), numpy=np.__version__)
    return env


def warm_up(wl: Workload, seed: int) -> Round:
    """A short round at index WARMUP_INDEX, run before anything is timed: the first
    round of a process runs slower (allocator and BLAS thread start-up,
    first-touch page faults), and would otherwise weigh on the medians.
    Its operations are checked and counted like any other."""
    return run_round(wl, seed, WARMUP_INDEX, divisor=WARMUP_DIVISOR)


def _fill(wl: Workload, seed: int, rounds: List[Round], start: float, seconds: float) -> None:
    """Run further untraced rounds up to wl.gate_rounds, then while the next
    is expected to end in time."""
    while (len(rounds) < wl.gate_rounds
           or time.perf_counter() - start + statistics.median(r.wall_s for r in rounds) <= seconds):
        rounds.append(run_round(wl, seed, len(rounds)))


def run_plain(wl: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off: medians over rounds."""
    start = time.perf_counter()
    warm = warm_up(wl, seed)
    rounds = [run_round(wl, seed, 0)]
    _fill(wl, seed, rounds, start, seconds)
    return _result(wl, seed, rounds, [], {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }, [warm])


def run_traced(wl: Workload, seed: int, seconds: float, spans_path) -> dict:
    """Per-layer metrics of round 0, traced (at one worker, as spans cannot
    be seen inside pool workers), against the same round untraced, and
    untraced at the workload's pool_workers."""
    start = time.perf_counter()
    warm = warm_up(wl, seed)
    plain = run_round(wl, seed, 0)
    pooled = run_round(wl, seed, 0, workers=wl.pool_workers) if wl.pool_workers > 1 else plain
    tracer = Tracer()
    with tracer.install():
        traced = run_round(wl, seed, 0)
    tracer.write(spans_path)

    pooled_note = f", and at {wl.pool_workers} workers" if pooled is not plain else ""
    found = [Check("determinism", _same_records(plain, traced) and _same_records(pooled, traced),
                   f"round 0 records identical untraced and traced{pooled_note}")]
    rounds = [plain]
    _fill(wl, seed, rounds, start, seconds)

    layer = tracer.metrics()
    layer["trace.overhead_s"] = traced.wall_s - plain.wall_s
    layer["experiments.dispatch_s"] = pooled.wall_s - plain.wall_s / wl.pool_workers
    layer["experiments.parallel_efficiency"] = plain.wall_s / (wl.pool_workers * pooled.wall_s)
    metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
    extra = [warm, traced] + ([pooled] if pooled is not plain else [])
    return _result(wl, seed, rounds, found, metrics, extra)


def _result(wl, seed, rounds, found, metrics, extra=()) -> dict:
    found = found + run_checks(wl, seed, rounds)
    everything = list(rounds) + list(extra)
    return {
        "correct": all(c.ok for c in found),
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(rounds),
        "checks": [[c.name, c.ok, c.detail] for c in found],
        "env": environment(),
    }
