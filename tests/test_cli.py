"""CLI surface: catalog, experiment dispatch, mint/verify flows, exit codes."""

import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from hsmoney import f2lin, polyhide, privkey, qsim
from hsmoney.cli import EXIT_ASSERTION, EXIT_OK, EXIT_USAGE, _build_parser, main
from hsmoney.experiments import CATALOG, OPTIONS, ExperimentConfig, ExperimentOutcome, run_experiment


def test_catalog_lists_all(capsys):
    assert main(["catalog"]) == EXIT_OK
    out = capsys.readouterr().out
    for key in ("innerprod-progress", "hybrid-search-budget", "explicit-mint-verify"):
        assert key in out
    for key in CATALOG:
        assert key in out


def test_catalog_claims_exist():
    for spec in CATALOG.values():
        assert spec.claim
        assert spec.options


def test_run_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main([
        "run", "verify-roundtrip", "--scheme", "hsmini", "--n", "10",
        "--trials", "100", "--seed", "7", "--workers", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["experiment"] == "verify-roundtrip"
    assert header["seed"] == 7
    assert len(lines) == 101  # metadata header plus one record per trial
    assert all(json.loads(ln)["accepted"] for ln in lines[1:])
    assert "PASS" in capsys.readouterr().out


def test_run_completeness_amplification_catalog_defaults(capsys):
    # catalog k and eta; the gate is the exact binomial tail of the threshold rule
    code = main([
        "run", "completeness-amplification", "--trials", "2000", "--seed", "113",
        "--workers", "1",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "exact_error" in out
    assert "result: PASS" in out


def test_run_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        main(["run", "duality-check", "--trials", "50", "--seed", "3",
              "--workers", "1", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_unknown_experiment_is_usage_error(capsys):
    assert main(["run", "no-such-experiment"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cap_violation_is_usage_error(capsys):
    code = main(["run", "duality-check", "--n", "99", "--trials", "2", "--workers", "1"])
    assert code == EXIT_USAGE


def test_malformed_flag_usage_error(capsys):
    assert main(["run", "duality-check", "--trials", "abc"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["wiesner", "verify", "--n", "1.5"],
        ["run", "duality-check", "--no-such-flag", "3"],
        ["wiesner"],
        ["no-such-command"],
    ],
)
def test_parser_errors_are_one_line(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_mint_and_verify_explicit_flow(tmp_path, capsys):
    prefix = str(tmp_path / "note")
    assert main(["mint-explicit", "--n", "8", "--seed", "5", "--out", prefix]) == EXIT_OK
    assert main(["verify-explicit", "--note", prefix, "--seed", "6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ACCEPT" in out


def test_mint_explicit_refuses_degree_one(tmp_path, capsys):
    prefix = str(tmp_path / "bad")
    code = main(["mint-explicit", "--n", "8", "--d", "1", "--out", prefix])
    assert code == EXIT_USAGE
    assert "insecure" in capsys.readouterr().err


def test_verify_explicit_rejects_an_odd_n_note(tmp_path, capsys):
    # well-formed files that no mint writes: n=7 has no half-dimensional subspace
    rng = np.random.default_rng(3)
    a = f2lin.random_subspace(7, 3, rng)
    for suffix, text in ((".primal", polyhide.sample_noisy_system(a, 3, 84, 0.25, rng).serialize()),
                         (".dual", polyhide.sample_noisy_system(a.dual(), 3, 84, 0.25, rng).serialize()),
                         (".state", qsim.subspace_state(a).dump())):
        (tmp_path / ("note" + suffix)).write_text(text)
    assert main(["verify-explicit", "--note", str(tmp_path / "note")]) == EXIT_ASSERTION
    assert capsys.readouterr().out.strip() == "REJECT"


def test_verify_explicit_missing_file(tmp_path):
    assert main(["verify-explicit", "--note", str(tmp_path / "nope")]) == EXIT_USAGE


def test_attack_d1_command(capsys):
    assert main(["attack-d1", "--n", "12", "--seed", "2"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "recovered == planted: True"
    # the recovered subspace as a header and its basis rows
    assert out[1] == "n=12 dim=6" and len(out) == 8
    assert all(len(row) == 12 and set(row) <= {"0", "1"} for row in out[2:])


def test_wiesner_subcommands(capsys):
    assert main(["wiesner", "mint", "--n", "8", "--seed", "1"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert len(rec["qubits"]) == 8
    assert main(["wiesner", "verify", "--n", "8", "--seed", "1", "--trials", "20"]) == EXIT_OK


def test_wiesner_attacks_take_the_catalog_defaults(tmp_path):
    # the attacks leave n and trials to their catalog entries, as mint and
    # verify do not
    for name in ("attack-adaptive", "attack-clone"):
        args = _build_parser().parse_args(["wiesner", name])
        assert (args.n, args.trials) == (None, None)
    verify = _build_parser().parse_args(["wiesner", "verify"])
    assert (verify.n, verify.trials) == (16, 100)
    out = tmp_path / "clone.jsonl"
    assert main(["wiesner", "attack-clone", "--seed", "2", "--out", str(out)]) == EXIT_OK
    header = json.loads(out.read_text().splitlines()[0])
    assert header["params"] == {option: spec.default for option, spec in CATALOG["attack-clone"].options.items()}


def _skewed_resend(keep: float, guess: float):
    """Measure-and-resend that, per qubit, copies the code exactly with
    probability keep and resends a uniformly random one of the four states
    with probability guess: both copies pass with keep + 3 guess / 8 +
    5 (1 - keep - guess) / 8 per qubit."""
    def clone(note, rng):
        codes = []
        for c in note.qubits:
            u = rng.random()
            if u < keep:
                codes.append(c)
            elif u < keep + guess:
                codes.append(int(rng.integers(0, 4)))
            else:
                codes.append(c if c in (0, 1) else int(rng.integers(0, 2)))
        return privkey.WiesnerNote(note.serial, list(codes)), privkey.WiesnerNote(note.serial, list(codes))

    return clone


def test_attack_clone_gates_on_the_exact_binomial_tail(tmp_path, monkeypatch):
    # at n=16 and 100 trials the expected hit count is 0.054, and seed 2 makes
    # one hit: P[X >= 1] = 0.053, far above the 3.2e-5 the gate asks of each
    # tail (half the two-sided 4-sigma level)
    out = tmp_path / "clone.jsonl"
    assert main(["run", "attack-clone", "--n", "16", "--trials", "100", "--seed", "2", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text().splitlines()[2])["rate"] == 0.01
    # at the catalog's n=8 and 2000 trials (46.6 hits expected) a cloner
    # whose per-qubit rate is not 5/8 still fails, above or below it
    cfg = ExperimentConfig(experiment="attack-clone", n=8, trials=2000, seed=3)
    for (keep, guess), ok in {(0.0, 0.0): True, (0.2, 0.0): False, (0.0, 0.4): False}.items():
        monkeypatch.setattr(privkey, "measure_resend_clone", _skewed_resend(keep, guess))
        assert run_experiment(cfg).ok is ok, (keep, guess)


def test_keyed_subcommands(capsys):
    assert main(["keyed", "mint", "--n", "8", "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    assert main(["keyed", "verify", "--n", "8", "--seed", "1", "--trials", "25"]) == EXIT_OK
    assert "25/25" in capsys.readouterr().out


def test_workers_parallel_matches_serial(tmp_path):
    a = tmp_path / "serial.jsonl"
    b = tmp_path / "pool.jsonl"
    main(["run", "attack-d1", "--trials", "20", "--seed", "9", "--workers", "1", "--out", str(a)])
    main(["run", "attack-d1", "--trials", "20", "--seed", "9", "--workers", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bundle_export_import_roundtrip(tmp_path, capsys):
    snap = tmp_path / "bundle.json"
    assert main(["bundle", "export", "--n", "8", "--seed", "4", "--touch", "5",
                 "--out", str(snap)]) == EXIT_OK
    capsys.readouterr()
    assert main(["bundle", "import", "--snapshot", str(snap)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n=8, 5 entries" in out
    assert main(["bundle", "import", "--snapshot", str(tmp_path / "nope")]) == EXIT_USAGE


def test_qubit_cap_env_override(monkeypatch):
    from hsmoney import config

    monkeypatch.setenv("HSMONEY_QUBIT_CAP", "6")
    assert config.qubit_cap() == 6
    cfg = ExperimentConfig(experiment="duality-check", n=8, trials=2, workers=1)
    with pytest.raises(ValueError):
        run_experiment(cfg)
    monkeypatch.delenv("HSMONEY_QUBIT_CAP")
    assert config.qubit_cap() == 20


@pytest.mark.parametrize(
    "suffix, text",
    [
        (".state", "n=6\n999 1.0 0.0\n"),  # index beyond 2^n
        (".state", "n=6\n-1 1.0 0.0\n"),  # negative index would wrap around
        (".state", "n=6\n0 1.0 0.0\n0 1.0 0.0\n"),  # repeated index
        (".state", "n=6\n0 nan 0.0\n"),  # NaN slips through the norm check
        (".state", "n=6\n0 1e308 1e308\n"),  # the norm overflows
        (".state", "n=6\n0 1.0\n"),  # missing field
        (".state", "n=21\n0 1.0 0.0\n"),  # beyond the qubit cap
        (".primal", "n=21 d=4 m=1 eps=0.25\n-\n"),  # beyond the qubit cap
        (".primal", "n=6 d=4 m=1 eps=0.25\nx9\n"),  # variable outside n
        (".primal", "n=6 d=3 m=1 eps=0.25\nx0.x1.x2.x3.x4.x5\n"),  # monomial above the degree bound
        (".primal", "n=20 d=2 m=32 eps=0.0\n" + "-\n" * 32),  # 32 MiB of coefficients: twice the cap
        (".primal", "n=6 d=4 m=1\n-\n"),  # header without eps
        (".primal", ""),  # no header
    ],
)
def test_verify_explicit_rejects_malformed_note(tmp_path, capsys, suffix, text):
    prefix = str(tmp_path / "note")
    assert main(["mint-explicit", "--n", "6", "--seed", "5", "--out", prefix]) == EXIT_OK
    (tmp_path / ("note" + suffix)).write_text(text)
    capsys.readouterr()
    assert main(["verify-explicit", "--note", prefix]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "field", ["eps=inf", "eps=-inf", "eps=1e308", "eps=nan", "d=-3", "d=100000000000000000000", "m=0", "m=1", "m=3"]
)
def test_verify_explicit_refuses_out_of_range_header(tmp_path, capsys, field):
    # both systems carry the value, so the pair is otherwise well formed;
    # an m field keeps m all-zero rows, so the row count matches the header
    prefix = str(tmp_path / "note")
    assert main(["mint-explicit", "--n", "6", "--seed", "5", "--out", prefix]) == EXIT_OK
    key = field.split("=")[0]
    for suffix in (".primal", ".dual"):
        path = tmp_path / ("note" + suffix)
        head, rest = path.read_text().split("\n", 1)
        path.write_text(re.sub(rf"\b{key}=\S+", field, head) + "\n" + ("-\n" * int(field[2:]) if key == "m" else rest))
    capsys.readouterr()
    assert main(["verify-explicit", "--note", prefix]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _set(data, path, value):
    # replace the field at a path of keys; returns the whole snapshot
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda d: [], id="not an object"),
        pytest.param(lambda d: {"n": "8", "entries": d["entries"]}, id="n not an integer"),
        pytest.param(lambda d: {"n": 8, "entries": []}, id="entries not an object"),
        pytest.param(lambda d: _set(d, ["entries", "999"], d["entries"].pop("1")), id="r beyond 2^n"),
        pytest.param(lambda d: _set(d, ["entries", "x"], d["entries"].pop("1")), id="r not an integer"),
        pytest.param(lambda d: _set(d, ["entries", "0", "serial"], "0a"), id="serial of the wrong length"),
        pytest.param(lambda d: _set(d, ["entries", "0", "serial"], "zz" * 3), id="serial not hex"),
        pytest.param(lambda d: _set(d, ["entries", "1", "serial"], d["entries"]["0"]["serial"]), id="shared serial"),
        pytest.param(lambda d: _set(d, ["entries", "0", "basis", 0], "1"), id="one-character row"),
        pytest.param(lambda d: _set(d, ["entries", "0", "basis", 0], "1020" * 2), id="row not 0/1"),
        pytest.param(lambda d: _set(d, ["entries", "0", "basis"], d["entries"]["0"]["basis"][:1]), id="dimension 1"),
        pytest.param(lambda d: _set(d, ["entries", "0"], None), id="entry not an object"),
    ],
)
def test_bundle_import_rejects_malformed_snapshot(tmp_path, capsys, mutate):
    snap = tmp_path / "bundle.json"
    assert main(["bundle", "export", "--n", "8", "--seed", "4", "--touch", "2",
                 "--out", str(snap)]) == EXIT_OK
    snap.write_text(json.dumps(mutate(json.loads(snap.read_text()))))
    capsys.readouterr()
    assert main(["bundle", "import", "--snapshot", str(snap)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_bundle_import_refuses_deeply_nested_json(tmp_path, capsys):
    # the JSON decoder recurses once per nesting level
    snap = tmp_path / "bundle.json"
    snap.write_text("[" * 100_000)
    assert main(["bundle", "import", "--snapshot", str(snap)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["wiesner", "attack-adaptive", "--n", "1"],
        ["wiesner", "mint", "--n", "0"],
        ["wiesner", "verify", "--n", "0"],
        # one recorded basis per qubit: past the Wiesner cap of 64
        ["wiesner", "mint", "--n", "65"],
        ["wiesner", "verify", "--n", str(10 ** 12)],
        ["wiesner", "verify", "--trials", "0"],
        # the catalog's cap of 2^16 trials
        ["wiesner", "verify", "--n", "1", "--trials", "65537"],
        ["keyed", "verify", "--n", "3"],
        ["keyed", "verify", "--n", "8", "--trials", "-1"],
        ["keyed", "verify", "--n", "2", "--trials", "65537"],
        ["bundle", "export", "--n", "3", "--out", "unused.json"],
        ["bundle", "export", "--n", "22", "--out", "unused.json"],
        # --touch materializes that many of the 2^n entries
        ["bundle", "export", "--touch", "-1", "--out", "unused.json"],
        ["bundle", "export", "--n", "4", "--touch", "17", "--out", "unused.json"],
        ["attack-d1", "--n", "0"],
        ["attack-d1", "--n", "1"],
        ["attack-d1", "--n", "22"],  # beyond the qubit cap, below the GF(2) cap
        ["mint-explicit", "--n", "22", "--out", "unused"],
        ["mint-explicit", "--n", "8", "--d", "30", "--out", "unused"],  # the catalog bounds d by 24
        # beta n rows of 2^n coefficient bytes: past the table cap of 2^24
        ["attack-d1", "--n", "12", "--beta", "100000"],
        ["mint-explicit", "--n", "12", "--beta", "100000", "--out", "unused"],
        # beta must be finite and above 0, before m = ceil(beta n)
        *[[cmd, "--n", "8", "--beta", beta, *out]
          for cmd, out in (("attack-d1", []), ("mint-explicit", ["--out", "unused"]))
          for beta in ("inf", "nan", "-1", "0")],
        ["run", "attack-d1", "--trials", "2", "--workers", "1", "--out", "no/such/dir/r.jsonl"],
        ["run", "duality-check", "--trials", "1", "--workers", "-3"],
        # delta must lie in (0, 1), before log(1/delta) or the schedule reads it
        *[["run", "amplify-counterfeiter", "--trials", "1", "--workers", "1", *delta]
          for delta in (["--delta", "0"], ["--delta", "nan"], ["--delta", "-1"],
                        ["--eps", "0.9", "--delta", "1.5"])],
    ],
    ids=" ".join,
)
def test_invalid_sizes_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize(
    "experiment, eps",
    [
        *[(experiment, eps)
          for experiment in ("fixed-point-monotone", "hybrid-search-budget",
                             "amplify-counterfeiter", "completeness-amplification")
          for eps in ("0", "nan", "inf")],
        ("completeness-amplification", "0.7"),  # base completeness error past 1/2
        ("explicit-mint-verify", "-0.1"),  # a noise rate may be 0, not below
    ],
)
def test_out_of_range_eps_is_a_usage_error_before_any_trial(monkeypatch, capsys, experiment, eps):
    def runner(cfg):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(CATALOG, experiment, dataclasses.replace(CATALOG[experiment], runner=runner))
    assert main(["run", experiment, "--trials", "1", "--workers", "1", "--eps", eps]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eps must lie in ")


@pytest.mark.parametrize(
    "experiment, eps, delta",
    [*[(experiment, eps, "")
       for experiment in ("fixed-point-monotone", "hybrid-search-budget", "amplify-counterfeiter")
       # eps ** 2 underflows, 1/eps overflows int64, 1/eps is inf
       for eps in ("1e-300", "1e-20", "5e-324")],
     # the schedule passes 2^24
     ("fixed-point-monotone", "1e-9", ""),
     ("hybrid-search-budget", "1e-9", ""),
     # amplify-counterfeiter counts only the backend it runs: L = 1e8 hybrid draws at
     # delta 0.05, and 2.2e7 fixed-point rounds at delta 1e-3 < 2 sqrt(eps)
     ("amplify-counterfeiter", "1e-12", ""),
     ("amplify-counterfeiter", "4e-7", "1e-3")],
)
def test_eps_setting_an_endless_schedule_is_a_usage_error_before_any_trial(
    monkeypatch, capsys, experiment, eps, delta
):
    def runner(cfg):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(CATALOG, experiment, dataclasses.replace(CATALOG[experiment], runner=runner))
    argv = ["run", experiment, "--trials", "1", "--workers", "1", "--eps", eps] + (["--delta", delta] if delta else [])
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: eps={float(eps)} is too small")


def test_amplify_eps_bound_ignores_the_fixed_point_schedule_the_hybrid_replaces(monkeypatch):
    # at delta 0.05, eps 1e-9 runs the hybrid (L 3.2e6, R 62,500), not 3.7e9 fixed-point rounds
    reached = []
    experiment = "amplify-counterfeiter"
    monkeypatch.setitem(CATALOG, experiment, dataclasses.replace(
        CATALOG[experiment], runner=lambda cfg: reached.append(cfg) or ExperimentOutcome([], {}, True)))
    assert main(["run", experiment, "--trials", "1", "--workers", "1", "--eps", "1e-9"]) == EXIT_OK
    assert [cfg.eps for cfg in reached] == [1e-9]


@pytest.mark.parametrize("experiment", ["attack-adaptive", "keyed-contrast"])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_zero_samples_per_candidate_is_a_usage_error_before_any_trial(
    monkeypatch, capsys, experiment, k
):
    def runner(cfg):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(CATALOG, experiment, dataclasses.replace(CATALOG[experiment], runner=runner))
    assert main(["run", experiment, "--trials", "1", "--workers", "1", "--k", k]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: k (samples per candidate) must be at least 1")


@pytest.mark.parametrize("delta", ["1e-300", "5e-324", "1e-3"])
def test_delta_setting_endless_clean_up_is_a_usage_error_before_any_trial(monkeypatch, capsys, delta):
    # delta ** 2 underflows; 1/delta is inf; R = 25/delta^2 (2 + ln 1/delta)/0.8 passes 2^24
    def runner(cfg):
        raise AssertionError("a trial ran")

    experiment = "hybrid-search-budget"
    monkeypatch.setitem(CATALOG, experiment, dataclasses.replace(CATALOG[experiment], runner=runner))
    assert main(["run", experiment, "--trials", "1", "--workers", "1", "--delta", delta]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: delta={float(delta)} is too small")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["kcopy-scaling", "--k", "-1"], "k"),  # the reference divides by sqrt(k + 1)
        (["kcopy-scaling", "--k", "-2"], "k"),
        (["completeness-amplification", "--k", "100000000"], "k"),  # k 2^n 16 B of notes
        (["hybrid-search-budget", "--eps", "0.5"], "eps"),  # the hybrid needs delta >= 2 eps
        (["attack-d1", "--d", "0"], "d"),  # attack-d1 reads no d
        (["clone-search", "--eps", "5"], "eps"),  # clone-search reads no eps
        (["duality-check", "--trials", str(2 ** 62)], "trials"),
        # k (trials + 2 max(200, trials // 20)) sub-note verifications past 2^20
        (["completeness-amplification", "--n", "2", "--trials", "1", "--k", "2615"], "k"),
        (["completeness-amplification", "--trials", "65536"], "trials"),
        # the catalog's Option bounds are the only list of allowed values
        (["verify-roundtrip", "--scheme", "bogus"], "scheme"),
        (["clone-search", "--target", "bogus"], "target"),
    ],
)
def test_options_outside_their_declaration_are_usage_errors_before_any_trial(monkeypatch, capsys, argv, option):
    def runner(cfg):
        raise AssertionError("a trial ran")

    monkeypatch.setitem(CATALOG, argv[0], dataclasses.replace(CATALOG[argv[0]], runner=runner))
    assert main(["run", *argv, "--workers", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and re.search(rf"\b{option}\b", err[0])


def test_run_has_one_flag_per_catalog_option():
    (commands,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    run_p = commands.choices["run"]
    flags = [flag for a in run_p._actions for flag in a.option_strings if flag not in ("-h", "--help")]
    assert sorted(flags) == sorted([f"--{name}" for name in OPTIONS] + ["--seed", "--out", "--workers"])
    types = {a.dest: a.type for a in run_p._actions}
    assert (types["n"], types["eps"], types["scheme"]) == (int, float, str)


def test_wiesner_attack_past_the_statevector_cap(capsys):
    # a Wiesner note is never a statevector: only the Wiesner cap of 64 bounds n
    assert main(["wiesner", "attack-adaptive", "--n", "24", "--trials", "1"]) == EXIT_OK
    assert "result: PASS" in capsys.readouterr().out


def test_report_header_lists_the_declared_options(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    assert main(["run", "duality-check", "--trials", "2", "--workers", "1", "--out", str(out)]) == EXIT_OK
    header = json.loads(out.read_text().splitlines()[0])
    assert header["params"] == {"n": 12, "trials": 2}


def test_catalog_prints_options_without_a_default(capsys):
    assert main(["catalog"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "options: n=6 k=(runner picks) trials=101" in out
    assert "options: n=(runner picks) trials=50" in out
