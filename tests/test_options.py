"""The option declarations of the experiment catalog: every entry takes only
the options its runner reads, each within its bound, before any trial runs.

Every test here swaps the runners for stubs or runs a few tiny trials, so no
test starts the allocation or the loop a bound guards against."""

import contextlib
import dataclasses
import io
import math
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsmoney import config, experiments
from hsmoney.cli import EXIT_OK, EXIT_USAGE, main
from hsmoney.experiments import CATALOG, OPTIONS, ExperimentConfig, ExperimentOutcome, configure

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import WORKLOADS, round_configs  # noqa: E402
from test_golden import CONFIGS  # noqa: E402

DECLARED = [(experiment, name) for experiment, spec in CATALOG.items() for name in spec.options]
UNDECLARED = [(experiment, name) for experiment, spec in CATALOG.items()
              for name in OPTIONS if name not in spec.options]
# a value of the right type for each option, inside every declared bound
PLAIN = {"n": "8", "d": "4", "eps": "0.1", "beta": "6", "delta": "0.2", "k": "4", "eta": "0.1",
         "trials": "1", "scheme": "hsmini", "target": "haar"}


def _stubbed():
    """Every runner replaced by one that returns an empty passing outcome and
    records the config it was handed."""
    reached = []

    def stub(cfg):
        reached.append(cfg)
        return ExperimentOutcome([], {}, True)

    return reached, mock.patch.dict(CATALOG, {e: dataclasses.replace(s, runner=stub) for e, s in CATALOG.items()})


def _run(argv):
    """main(argv) with stdout discarded; the exit code and the stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _names(line, option):
    return line.startswith("error: ") and re.search(rf"\b{option}\b", line) is not None


def test_each_experiment_takes_only_the_options_it_reads():
    assert len(OPTIONS) == 10 and len(CATALOG) == 16
    assert (len(DECLARED), len(UNDECLARED)) == (53, 107)


@pytest.mark.parametrize("experiment, option", UNDECLARED, ids=[f"{e}-{o}" for e, o in UNDECLARED])
def test_undeclared_options_are_usage_errors_before_any_trial(experiment, option):
    reached, stubbed = _stubbed()
    with stubbed:
        code, err = _run(["run", experiment, f"--{option}={PLAIN[option]}", "--workers", "1"])
    assert code == EXIT_USAGE and not reached
    assert len(err) == 1 and _names(err[0], option)


def test_defaults_and_benchmark_configs_pass_their_declarations():
    for experiment, spec in CATALOG.items():
        filled = configure(ExperimentConfig(experiment=experiment))
        assert {name: getattr(filled, name) for name in spec.options} == {
            name: opt.default for name, opt in spec.options.items()}
    for workload in WORKLOADS.values():
        for part, cfg in zip(workload.parts, round_configs(workload, seed=1, index=0)):
            assert set(part.params) <= set(CATALOG[part.experiment].options)
            configure(cfg)
    for experiment, overrides in CONFIGS:
        assert set(overrides) - {"seed"} <= set(CATALOG[experiment].options)
        configure(ExperimentConfig(experiment=experiment, **overrides))


INTS = ("n", "d", "k", "trials")
FLOATS = ("eps", "beta", "delta", "eta")
EXTREME_INTS = [0, 1, -1, 2, 3, 9, 10, 11, 19, 20, 21, 24, 25, 63, 64, 65, 2 ** 16, 2 ** 16 + 1,
                2 ** 18, 2 ** 18 + 1, 2 ** 24, 2 ** 24 + 1, 2 ** 62, -(2 ** 62)]
EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-162, 1e-9, 1e-3,
                  0.05, 0.1, 0.3, 0.5, math.nextafter(0.5, 0), 1.0, math.nextafter(1.0, 0),
                  math.nextafter(1.0, 2), 1.5, 8192.0, 8193.0, 2.0 ** 62, math.inf, -math.inf, math.nan]


def _inside_envelope(option, value):
    """A coarse bound no declaration may pass beyond: a finite value, and no
    register, loop or table past the program's caps."""
    if option == "n":
        return 2 <= value <= config.WIESNER_QUBIT_CAP
    if option == "trials":
        return 1 <= value <= 2 ** 16
    if option in ("d", "k"):
        return 0 <= value <= 2 ** 24
    if option == "beta":  # verify-roundtrip reads it only for explicit serials
        return 0 < value < math.inf
    return 0 <= value <= 1


@st.composite
def _draws(draw):
    experiment = draw(st.sampled_from(sorted(CATALOG)))
    option = draw(st.sampled_from(INTS + FLOATS))
    if option in INTS:
        value = draw(st.sampled_from(EXTREME_INTS) | st.integers(-(2 ** 62), 2 ** 62))
    else:
        value = draw(st.sampled_from(EXTREME_FLOATS) | st.floats(allow_nan=True, allow_infinity=True))
    return experiment, option, value


@settings(max_examples=400, deadline=None)
@given(_draws())
def test_extreme_values_end_in_one_named_error_or_a_bounded_run(draw):
    experiment, option, value = draw
    reached, stubbed = _stubbed()
    with stubbed:
        code, err = _run(["run", experiment, f"--{option}={value!r}", "--workers", "1"])
    if code == EXIT_USAGE:
        assert not reached
        assert len(err) == 1 and _names(err[0], option)
    else:
        assert code == EXIT_OK and len(reached) == 1 and not err
        assert option in CATALOG[experiment].options
        assert getattr(reached[0], option) == value and _inside_envelope(option, value)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, trials, cores, started", [
    (10 ** 9, 3, 64, 3),  # no more processes than trials
    (10 ** 9, 100, 64, 64),  # no more than cores
    (8, 100, 64, 8),
    (8, 1, 64, None),  # one trial runs in process
    (1, 100, 64, None),
])
def test_pool_starts_no_more_workers_than_trials_and_cores(monkeypatch, workers, trials, cores, started):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    cfg = ExperimentConfig(experiment="duality-check", n=4, trials=trials, seed=3, workers=workers)
    records = experiments.run_experiment(cfg).records
    assert _RecordingPool.sizes == ([] if started is None else [started])
    assert records == experiments.run_experiment(dataclasses.replace(cfg, workers=1)).records
