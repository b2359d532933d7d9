"""Golden reports: every catalog experiment at small sizes and fixed seeds.

`tests/golden/catalog.jsonl` holds, for each config below, one header line
(experiment, overrides, ok, summary) followed by the experiment's records,
all as `sort_keys` JSON. The test regenerates the reports at one worker and
compares them byte for byte, so a refactor that changes any record, summary
or verdict fails here. Rewrite the file after an intended change with

    PYTHONPATH=src python tests/test_golden.py

and state in CHANGES.md which fields changed and why.
"""

import json
from pathlib import Path

from hsmoney.experiments import CATALOG, ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden" / "catalog.jsonl"

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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render())
