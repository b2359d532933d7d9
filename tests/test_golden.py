"""Golden reports: every catalog experiment at small sizes and fixed seeds.

`tests/golden/catalog.jsonl` holds, for each config below, one header line
(experiment, overrides, ok, summary) followed by the experiment's records,
all as `sort_keys` JSON. The test regenerates the reports at one worker and
compares them byte for byte, so a refactor that changes any record, summary
or verdict fails here. Rewrite the file after an intended change with

    PYTHONPATH=src python tests/test_golden.py

and state in CHANGES.md which fields changed and why. Before rewriting, list
what would change with

    PYTHONPATH=src python tests/test_golden.py --compare

which prints every differing field of every differing line (and |delta| for
floats) and exits 1 if an integer, string, flag or `ok` differs, if the line
count differs, or if a float moves by more than 1e-12.
"""

import json
import sys
from pathlib import Path

from hsmoney.experiments import CATALOG, ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "catalog.jsonl"
FLOAT_TOL = 1e-12

# (experiment, overrides); every catalog experiment appears at least once,
# and every scheme, target and amplification backend gets its own config
CONFIGS = [
    ("verify-roundtrip", {"scheme": "hsmini", "n": 6, "trials": 5, "seed": 1}),
    ("verify-roundtrip", {"scheme": "explicit", "n": 6, "trials": 3, "seed": 2}),
    ("verify-roundtrip", {"scheme": "keyed", "n": 6, "trials": 5, "seed": 3}),
    ("verify-roundtrip", {"scheme": "wiesner", "n": 8, "trials": 5, "seed": 4}),
    ("duality-check", {"n": 8, "trials": 5, "seed": 5}),
    ("verifier-projector", {"n": 6, "trials": 3, "seed": 6}),
    ("hybrid-search-budget", {"n": 8, "eps": 0.05, "delta": 0.2, "trials": 5, "seed": 7}),
    ("fixed-point-monotone", {"n": 6, "trials": 5, "seed": 8}),
    ("amplify-counterfeiter", {"n": 6, "trials": 5, "seed": 9}),
    # delta >= 2 sqrt(eps): the hybrid backend
    ("amplify-counterfeiter", {"n": 6, "eps": 0.2, "delta": 0.9, "trials": 5, "seed": 10}),
    ("innerprod-progress", {"n": 6, "trials": 4, "seed": 11}),
    ("clone-search", {"n": 6, "target": "haar", "trials": 5, "seed": 12}),
    ("clone-search", {"n": 8, "target": "subspace", "trials": 5, "seed": 13}),
    ("kcopy-scaling", {"n": 4, "trials": 5, "seed": 14}),
    ("explicit-mint-verify", {"n": 6, "trials": 3, "seed": 15}),
    ("attack-d1", {"n": 8, "trials": 5, "seed": 16}),
    ("attack-adaptive", {"n": 6, "k": 4, "trials": 3, "seed": 17}),
    ("attack-clone", {"n": 4, "trials": 50, "seed": 21}),
    ("keyed-contrast", {"n": 4, "k": 4, "seed": 19}),
    ("completeness-amplification", {"trials": 200, "seed": 20}),
    ("money-end-to-end", {"n": 6, "trials": 4, "seed": 21}),
]


def render() -> str:
    lines = []
    for experiment, overrides in CONFIGS:
        cfg = ExperimentConfig(experiment=experiment, workers=1, **overrides)
        outcome = run_experiment(cfg)
        header = {
            "experiment": experiment,
            "overrides": overrides,
            "ok": bool(outcome.ok),
            "summary": outcome.summary,
        }
        lines.append(json.dumps(header, sort_keys=True))
        lines.extend(json.dumps(r, sort_keys=True) for r in outcome.records)
    return "\n".join(lines) + "\n"


def test_configs_cover_the_catalog():
    assert {experiment for experiment, _ in CONFIGS} == set(CATALOG)


def test_reports_match_golden():
    assert render() == GOLDEN.read_text()


def _leaf_diffs(old, new, path=""):
    """(path, old, new) for every leaf value that differs between two records."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from _leaf_diffs(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _leaf_diffs(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def compare(committed: str, fresh: str) -> bool:
    """Print how `fresh` differs from `committed`, line by line; True when
    only floats moved, each by at most FLOAT_TOL."""
    old_lines, new_lines = committed.splitlines(), fresh.splitlines()
    within = len(old_lines) == len(new_lines)
    if not within:
        print(f"line count {len(old_lines)} -> {len(new_lines)}")
    for number, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        if old == new:
            continue
        for path, a, b in _leaf_diffs(json.loads(old), json.loads(new)):
            if isinstance(a, float) and isinstance(b, float):
                delta = abs(a - b)
                within &= delta <= FLOAT_TOL
                print(f"line {number}: {path} |delta| = {delta:.3g}")
            else:
                within = False
                print(f"line {number}: {path} {a!r} -> {b!r}")
    return within


def test_compare_passes_only_small_float_moves(capsys):
    old = '{"ok": true, "T": 3, "f": 0.5, "g": [0.25, {"h": 0.125}]}\n'
    assert compare(old, old.replace("0.125", "0.12500000000000003"))
    assert not compare(old, old.replace("0.5", "0.5000001"))
    assert not compare(old, old.replace("true", "false"))
    assert not compare(old, old.replace("3", "4"))
    assert not compare(old, old.replace("3", "3.0"))
    assert not compare(old, old + old)
    assert "g[1].h |delta|" in capsys.readouterr().out


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        sys.exit(0 if compare(GOLDEN.read_text(), render()) else 1)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
