"""Spans around calls into hsmoney's layers, recorded from the benchmark.

`Tracer.install()` replaces public functions and methods of the hsmoney
modules with wrappers that record one span per call: its name, start, end and
parent span. A module-level function is rebound in every hsmoney module that
imported it by name (`search.measure_projector` as well as
`qsim.measure_projector`), so calls resolve to the wrapper wherever they are
made. Spans stay in memory until `write()`; per-layer metrics are self times
(a span's duration minus the time covered by its child spans) and counts
gathered at the same call sites.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (metric, unit, better) for every per-layer metric the traced run reports.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("qsim.states_built", "count", "lower"),
    ("qsim.state_build_s", "s", "lower"),
    ("qsim.oracle_calls", "count", "lower"),
    ("qsim.oracle_s", "s", "lower"),
    ("qsim.measure_calls", "count", "lower"),
    ("qsim.measure_s", "s", "lower"),
    ("qsim.subspace_state_calls", "count", "lower"),
    ("qsim.subspace_state_s", "s", "lower"),
    ("qsim.wht_calls", "count", "lower"),
    ("qsim.wht_s", "s", "lower"),
    ("f2lin.rref_calls", "count", "lower"),
    ("f2lin.rref_s", "s", "lower"),
    ("f2lin.complete_to_invertible_s", "s", "lower"),
    ("f2lin.permutation_table_s", "s", "lower"),
    ("f2lin.member_array_calls", "count", "lower"),
    ("f2lin.member_array_s", "s", "lower"),
    ("polyhide.mobius_rows", "count", "lower"),
    ("polyhide.mobius_s", "s", "lower"),
    ("polyhide.sample_system_s", "s", "lower"),
    ("polyhide.zset_s", "s", "lower"),
    ("search.grover_steps", "count", "lower"),
    ("search.cleanup_rounds", "count", "lower"),
    ("search.queries", "count", "lower"),
    ("search.amplify_s", "s", "lower"),
    ("search.hybrid_s", "s", "lower"),
    ("advlab.rounds", "count", "lower"),
    ("advlab.queries", "count", "lower"),
    ("advlab.amplify_counterfeiter_s", "s", "lower"),
    ("hsmini.verify_calls", "count", "lower"),
    ("hsmini.verify_s", "s", "lower"),
    ("hsmini.target_state_calls", "count", "lower"),
    ("hsmini.target_state_s", "s", "lower"),
    ("hsmini.bank_s", "s", "lower"),
    ("hsmini.oracle_queries", "count", "lower"),
    ("money.keygen_s", "s", "lower"),
    ("money.sign_calls", "count", "lower"),
    ("money.sign_s", "s", "lower"),
    ("money.sverify_calls", "count", "lower"),
    ("money.sverify_s", "s", "lower"),
    ("money.composite_verify_s", "s", "lower"),
    ("money.verify2_s", "s", "lower"),
    ("experiments.trial_s", "s", "lower"),
    ("experiments.dispatch_s", "s", "lower"),
    ("experiments.parallel_efficiency", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts that are the paper's cost measure: fixed by the seed, so they must
# repeat exactly between traced runs and survive any speed-up unchanged.
COST_COUNTS = (
    "search.queries",
    "advlab.queries",
    "hsmini.oracle_queries",
    "search.grover_steps",
    "polyhide.mobius_rows",
)


def _is_bundle_oracle(oracle) -> bool:
    return getattr(oracle, "label", "").startswith("T_")


class Tracer:
    """Span recorder; one per traced round."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[list] = []  # [span id, time covered by children]
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; count(counts, args, kwargs, result), when
        given, runs inside the span after the call returns."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.span_start, self.span_end
        span_name, span_parent = self.span_name, self.span_parent
        self_time, calls, counts = self.self_time, self.calls, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, args, kwargs, result)
                return result
            finally:
                t1 = clock()
                end[span] = t1
                stack.pop()
                took = t1 - t0
                self_time[name] += took - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += took

        return traced

    def patch_function(
        self, module, attr: str, name: str, count: Optional[Callable] = None,
        call: Optional[Callable] = None,
    ) -> None:
        """Rebind module.attr, and every hsmoney module's name for the same
        function, to one traced wrapper around it (or around `call`, a
        stand-in with the same signature that calls it)."""
        original = getattr(module, attr)
        traced = self.wrap(name, call or original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hsmoney" or mod_name.startswith("hsmoney.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, count: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    @contextmanager
    def install(self):
        """Trace every layer boundary the per-layer metrics are built from."""
        from hsmoney import advlab, experiments, f2lin, hsmini, money, polyhide, qsim, search

        def bundle_count(counts, args, kwargs, result):
            counts["hsmini.oracle_queries"] += 1

        def measure_count(counts, args, kwargs, result):
            p = args[0] if args else kwargs["p"]
            if _is_bundle_oracle(p.charge_to):
                counts["hsmini.oracle_queries"] += 1

        def oracle_count(counts, args, kwargs, result):
            if _is_bundle_oracle(args[0]):
                counts["hsmini.oracle_queries"] += 1

        def mobius_count(counts, args, kwargs, result):
            mat = args[0]
            counts["polyhide.mobius_rows"] += mat.size // mat.shape[-1]

        def grover_count(counts, args, kwargs, result):
            counts["search.grover_steps"] += args[1] if len(args) > 1 else kwargs["T"]

        def amplify_count(counts, args, kwargs, result):
            counts["advlab.rounds"] += result.rounds
            counts["advlab.queries"] += result.queries

        hybrid_search = search.hybrid_search

        def hybrid_counted(p, params, rng, trace=None):
            # pass a trace dict whatever the caller did, to read the rounds
            trace = {} if trace is None else trace
            out, queries = hybrid_search(p, params, rng, trace=trace)
            self.counts["search.queries"] += int(queries)
            self.counts["search.cleanup_rounds"] += trace["rounds"]
            return out, queries

        try:
            self.patch_method(qsim.StateVector, "__init__", "qsim.state_build")
            self.patch_method(qsim.PhaseOracle, "apply", "qsim.oracle", oracle_count)
            self.patch_method(qsim.ReflectAboutState, "apply", "qsim.oracle")
            self.patch_function(qsim, "measure_projector", "qsim.measure", measure_count)
            self.patch_function(qsim, "postselect_projector", "qsim.measure", measure_count)
            self.patch_function(qsim, "subspace_state", "qsim.subspace_state")
            self.patch_function(qsim, "walsh_hadamard_raw", "qsim.wht")

            self.patch_function(f2lin, "rref", "f2lin.rref")
            self.patch_function(f2lin, "complete_to_invertible", "f2lin.complete_to_invertible")
            self.patch_method(f2lin.LinMap, "permutation_table", "f2lin.permutation_table")
            self.patch_method(f2lin.Subspace, "member_array", "f2lin.member_array")

            self.patch_function(polyhide, "xor_mobius_inplace", "polyhide.mobius", mobius_count)
            self.patch_function(polyhide, "sample_noisy_system", "polyhide.sample_system")
            self.patch_function(polyhide, "zset_mask", "polyhide.zset")
            self.patch_function(polyhide, "zset_subspace", "polyhide.zset")

            self.patch_function(search, "amplitude_amplify", "search.amplify", grover_count)
            self.patch_function(search, "hybrid_search", "search.hybrid", call=hybrid_counted)
            self.patch_function(advlab, "amplify_counterfeiter", "advlab.amplify_counterfeiter", amplify_count)

            self.patch_function(hsmini, "verify_circuit", "hsmini.verify")
            self.patch_method(hsmini.HsMiniScheme, "target_state", "hsmini.target_state")
            self.patch_function(hsmini, "bank", "hsmini.bank")
            self.patch_method(hsmini.OracleBundle, "generator", "hsmini.oracle", bundle_count)
            self.patch_method(hsmini.OracleBundle, "check_serial", "hsmini.oracle", bundle_count)

            self.patch_method(money.LamportMerkleSigner, "keygen", "money.keygen")
            self.patch_method(money.LamportMerkleSigner, "sign", "money.sign")
            self.patch_method(money.LamportMerkleSigner, "sverify", "money.sverify")
            self.patch_method(money.CompositeScheme, "verify", "money.composite_verify")
            self.patch_method(money.CompositeScheme, "count_accepts", "money.composite_verify")
            self.patch_function(money, "verify2", "money.verify2")
            self.patch_function(money, "verify2_post", "money.verify2")

            self.patch_function(experiments, "run_experiment", "experiments.run")
            for attr in ("trial_hybrid", "trial_amplify", "trial_explicit_mint_verify"):
                self.patch_function(experiments, attr, "experiments.trial")
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every span-derived per-layer metric of the traced work."""
        st, calls, counts = self.self_time, self.calls, self.counts
        out: Dict[str, float] = {
            "qsim.states_built": calls["qsim.state_build"],
            "qsim.state_build_s": st["qsim.state_build"],
            "qsim.oracle_calls": calls["qsim.oracle"],
            "qsim.oracle_s": st["qsim.oracle"],
            "qsim.measure_calls": calls["qsim.measure"],
            "qsim.measure_s": st["qsim.measure"],
            "qsim.subspace_state_calls": calls["qsim.subspace_state"],
            "qsim.subspace_state_s": st["qsim.subspace_state"],
            "qsim.wht_calls": calls["qsim.wht"],
            "qsim.wht_s": st["qsim.wht"],
            "f2lin.rref_calls": calls["f2lin.rref"],
            "f2lin.rref_s": st["f2lin.rref"],
            "f2lin.complete_to_invertible_s": st["f2lin.complete_to_invertible"],
            "f2lin.permutation_table_s": st["f2lin.permutation_table"],
            "f2lin.member_array_calls": calls["f2lin.member_array"],
            "f2lin.member_array_s": st["f2lin.member_array"],
            "polyhide.mobius_rows": counts["polyhide.mobius_rows"],
            "polyhide.mobius_s": st["polyhide.mobius"],
            "polyhide.sample_system_s": st["polyhide.sample_system"],
            "polyhide.zset_s": st["polyhide.zset"],
            "search.grover_steps": counts["search.grover_steps"],
            "search.cleanup_rounds": counts["search.cleanup_rounds"],
            "search.queries": counts["search.queries"],
            "search.amplify_s": st["search.amplify"],
            "search.hybrid_s": st["search.hybrid"],
            "advlab.rounds": counts["advlab.rounds"],
            "advlab.queries": counts["advlab.queries"],
            "advlab.amplify_counterfeiter_s": st["advlab.amplify_counterfeiter"],
            "hsmini.verify_calls": calls["hsmini.verify"],
            "hsmini.verify_s": st["hsmini.verify"],
            "hsmini.target_state_calls": calls["hsmini.target_state"],
            "hsmini.target_state_s": st["hsmini.target_state"],
            "hsmini.bank_s": st["hsmini.bank"],
            "hsmini.oracle_queries": counts["hsmini.oracle_queries"],
            "money.keygen_s": st["money.keygen"],
            "money.sign_calls": calls["money.sign"],
            "money.sign_s": st["money.sign"],
            "money.sverify_calls": calls["money.sverify"],
            "money.sverify_s": st["money.sverify"],
            "money.composite_verify_s": st["money.composite_verify"],
            "money.verify2_s": st["money.verify2"],
            "experiments.trial_s": st["experiments.run"] + st["experiments.trial"],
        }
        return out

    def write(self, path) -> None:
        """Write every span: name, start, end and parent span index (-1 for a
        root), with start and end in seconds of time.perf_counter."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
