"""The process setting a run makes: glibc keeps freed amplitude buffers in
the heap instead of returning them to the kernel, so a warm run stops
page-faulting. Where `mallopt` is missing the setting is skipped."""

import ctypes
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hsmoney import config, experiments
from hsmoney.experiments import ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src"


def _no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


def test_a_warm_amplification_run_makes_few_page_faults():
    if not config.keep_freed_memory():
        pytest.skip("this C library has no glibc mallopt")
    cfg = ExperimentConfig("amplify-counterfeiter", n=8, trials=8, seed=29, workers=1)
    experiments.run_experiment(cfg)  # the warm-up grows the heap once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    experiments.run_experiment(replace(cfg, seed=30))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # under glibc's default thresholds each trial faults its 1 MiB arrays in again: about 1,760
    assert faults < 100 * cfg.trials


def test_keep_freed_memory_looks_mallopt_up_once(monkeypatch):
    first = config.keep_freed_memory()
    monkeypatch.setattr(ctypes, "CDLL", _no_library)  # a second lookup would fail
    assert config.keep_freed_memory() is first
    assert config.keep_freed_memory() is first


@pytest.mark.parametrize("cdll", [_no_library, lambda name: object()], ids=["no-library", "no-symbol"])
def test_keep_freed_memory_sets_nothing_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(config, "_freed_memory_kept", None)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert config.keep_freed_memory() is False
    assert config.keep_freed_memory() is False


def test_importing_the_program_sets_nothing():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = "import hsmoney.cli, hsmoney.experiments; from hsmoney import config; print(config._freed_memory_kept)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "None"
