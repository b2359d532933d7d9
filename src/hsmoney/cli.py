"""Command-line entry point: mint/verify flows, the attack suite, and the
seeded experiment catalog.

Exit codes: 0 success, 1 experiment assertion failed, 2 usage error.
Reports are JSON lines (one record per line) plus a rendered summary table;
the same (config, seed) always produces an identical report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import List, Optional, get_args, get_type_hints

import numpy as np

from . import f2lin, hsmini, polyhide, privkey
from .experiments import CATALOG, OPTIONS, ExperimentConfig, configure, run_experiment
from .qsim import StateVector

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


def _emit_records(records, out: Optional[str]) -> None:
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_report(cfg: ExperimentConfig, outcome, out: Optional[str]) -> None:
    params = {k: getattr(cfg, k) for k in CATALOG[cfg.experiment].options if getattr(cfg, k) is not None}
    header = {"experiment": cfg.experiment, "seed": cfg.seed, "params": params}
    _emit_records([header] + outcome.records, out)


def _print_summary(summary: dict, ok: bool) -> None:
    width = max((len(k) for k in summary), default=0)
    print("-" * 46)
    for key, val in summary.items():
        print(f"  {key:<{width}}  {val}")
    print("-" * 46)
    print(f"  result: {'PASS' if ok else 'FAIL'}")


class _Parser(argparse.ArgumentParser):
    """Parser whose errors raise ValueError, so that `main`'s one error
    boundary reports them; subcommand parsers are of the same class."""

    def error(self, message: str):
        raise ValueError(message)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    # one flag per catalog option, typed from its ExperimentConfig field;
    # the catalog's Option bounds alone say which values it takes
    hints = get_type_hints(ExperimentConfig)
    for name in OPTIONS:
        (kind,) = (t for t in get_args(hints[name]) if t is not type(None))
        p.add_argument(f"--{name}", type=kind)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=0,
                   help="trial worker processes; 0 = available parallelism")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hsmoney",
        description="hidden-subspace quantum money: schemes, attacks, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the experiment catalog")

    run_p = sub.add_parser("run", help="run a catalog experiment")
    run_p.add_argument("experiment", choices=sorted(CATALOG))
    _add_experiment_flags(run_p)

    # defaults and bounds: the catalog's explicit-mint-verify entry
    mint_p = sub.add_parser("mint-explicit", help="mint a polynomial-serial banknote")
    mint_p.add_argument("--n", type=int)
    mint_p.add_argument("--d", type=int)
    mint_p.add_argument("--eps", type=float)
    mint_p.add_argument("--beta", type=float)
    mint_p.add_argument("--seed", type=int, default=0)
    mint_p.add_argument("--out", required=True, help="output file prefix")

    ver_p = sub.add_parser("verify-explicit", help="verify a minted banknote")
    ver_p.add_argument("--note", required=True, help="file prefix written by mint-explicit")
    ver_p.add_argument("--seed", type=int, default=0)

    # defaults and bounds: the catalog's attack-d1 entry
    d1_p = sub.add_parser("attack-d1", help="recover the subspace from degree-1 serials")
    d1_p.add_argument("--n", type=int)
    d1_p.add_argument("--eps", type=float)
    d1_p.add_argument("--beta", type=float)
    d1_p.add_argument("--seed", type=int, default=0)

    wiesner = sub.add_parser("wiesner", help="four-state private-key scheme")
    wsub = wiesner.add_subparsers(dest="subcommand", required=True)
    for name in ("mint", "verify", "attack-adaptive", "attack-clone"):
        wp = wsub.add_parser(name)
        wp.add_argument("--n", type=int, default=16)
        wp.add_argument("--seed", type=int, default=0)
        if name != "mint":
            wp.add_argument("--trials", type=int, default=100)
        if name.startswith("attack-"):
            wp.add_argument("--out", default=None)

    keyed = sub.add_parser("keyed", help="keyed hidden-subspace private scheme")
    ksub = keyed.add_subparsers(dest="subcommand", required=True)
    for name in ("mint", "verify"):
        kp = ksub.add_parser(name)
        kp.add_argument("--n", type=int, default=10)
        kp.add_argument("--seed", type=int, default=0)
        if name == "verify":
            kp.add_argument("--trials", type=int, default=100)

    bundle = sub.add_parser("bundle", help="oracle bundle snapshots")
    bsub = bundle.add_subparsers(dest="subcommand", required=True)
    bexp = bsub.add_parser("export")
    bexp.add_argument("--n", type=int, default=8)
    bexp.add_argument("--seed", type=int, default=0)
    bexp.add_argument("--touch", type=int, default=4, help="entries to materialize")
    bexp.add_argument("--out", required=True)
    bimp = bsub.add_parser("import")
    bimp.add_argument("--snapshot", required=True)

    return parser


def _cmd_catalog(_args) -> int:
    width = max(len(k) for k in CATALOG)
    for key in sorted(CATALOG):
        spec = CATALOG[key]
        options = " ".join(f"{k}={'(runner picks)' if o.default is None else o.default}"
                           for k, o in spec.options.items())
        print(f"{key:<{width}}  {spec.claim}")
        print(f"{'':<{width}}  options: {options}")
    return EXIT_OK


def _run_report(cfg: ExperimentConfig, out: Optional[str]) -> int:
    cfg = configure(cfg)
    outcome = run_experiment(cfg)
    _emit_report(cfg, outcome, out)
    _print_summary(outcome.summary, outcome.ok)
    return EXIT_OK if outcome.ok else EXIT_ASSERTION


def _cmd_run(args) -> int:
    names = {f.name for f in fields(ExperimentConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    if args.workers < 0:
        raise ValueError(f"workers must be 0 (available parallelism) or more, got {args.workers}")
    given["workers"] = args.workers or os.cpu_count() or 1
    return _run_report(ExperimentConfig(**given), args.out)


def _cmd_mint_explicit(args) -> int:
    cfg = configure(ExperimentConfig("explicit-mint-verify", n=args.n, d=args.d, eps=args.eps, beta=args.beta,
                                     seed=args.seed))
    if cfg.d < 2:
        raise ValueError("degree 1 serials are insecure (linear systems surrender the subspace); choose d >= 2")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    note, _ = polyhide.bank_explicit_with_secret(cfg.n, cfg.d, cfg.eps, cfg.beta, rng)
    with open(args.out + ".primal", "w") as fh:
        fh.write(note.primal_system.serialize())
    with open(args.out + ".dual", "w") as fh:
        fh.write(note.dual_system.serialize())
    with open(args.out + ".state", "w") as fh:
        fh.write(note.state.dump())
    print(f"minted n={cfg.n} d={cfg.d} note into {args.out}.{{primal,dual,state}}")
    return EXIT_OK


def _cmd_verify_explicit(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    with open(args.note + ".primal") as fh:
        primal = polyhide.PolySystem.deserialize(fh.read())
    with open(args.note + ".dual") as fh:
        dual = polyhide.PolySystem.deserialize(fh.read())
    with open(args.note + ".state") as fh:
        state = StateVector.load(fh.read())
    note = polyhide.ExplicitNote(primal, dual, state)
    ok = polyhide.verify_explicit(note, rng)
    print("ACCEPT" if ok else "REJECT")
    return EXIT_OK if ok else EXIT_ASSERTION


def _cmd_attack_d1(args) -> int:
    cfg = configure(ExperimentConfig("attack-d1", n=args.n, eps=args.eps, beta=args.beta, seed=args.seed))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    a = f2lin.random_subspace(cfg.n, cfg.n // 2, rng)
    m = polyhide.system_rows(cfg.beta, cfg.n)
    primal = polyhide.sample_noisy_system(a, 1, m, cfg.eps, rng)
    dual = polyhide.sample_noisy_system(a.dual(), 1, m, cfg.eps, rng)
    try:
        recovered = polyhide.degree1_attack(primal, dual)
    except polyhide.DegreeOneAttackError as exc:
        print(f"attack failed: {exc}")
        return EXIT_ASSERTION
    match = recovered == a
    print(f"recovered == planted: {match}")
    print(recovered.serialize(), end="")
    return EXIT_OK if match else EXIT_ASSERTION


def _check_trials(trials: int) -> None:
    """The catalog's trials bound, for the verify commands that run outside the catalog."""
    for check in CATALOG["verify-roundtrip"].options["trials"].checks:
        refusal = check(ExperimentConfig("verify-roundtrip", trials=trials))
        if refusal:
            raise ValueError(refusal)


def _cmd_wiesner(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    if args.subcommand == "mint":
        bank, note = privkey.wiesner_bank(args.n, rng)
        print(json.dumps({"serial": note.serial.hex(), "qubits": note.qubits}))
        return EXIT_OK
    if args.subcommand == "verify":
        _check_trials(args.trials)
        bank, note = privkey.wiesner_bank(args.n, rng)
        accepts = sum(bank.verify(note.serial, note.qubits, rng)[0] for _ in range(args.trials))
        print(f"accepted {accepts}/{args.trials}")
        return EXIT_OK if accepts == args.trials else EXIT_ASSERTION
    cfg = ExperimentConfig(experiment=args.subcommand, n=args.n, trials=args.trials, seed=args.seed)
    return _run_report(cfg, args.out)


def _cmd_keyed(args) -> int:
    if args.subcommand == "verify":
        _check_trials(args.trials)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    bank = privkey.KeyedSubspaceBank(args.n, rng.bytes(16))
    serial, state = bank.mint(rng)
    if args.subcommand == "mint":
        print(json.dumps({"serial": serial.hex(), "state": state.dump().splitlines()[0]}))
        return EXIT_OK
    accepts = 0
    for _ in range(args.trials):
        ok, state = bank.verify(serial, state, rng)
        accepts += ok
    print(f"accepted {accepts}/{args.trials}")
    return EXIT_OK if accepts == args.trials else EXIT_ASSERTION


def _cmd_bundle(args) -> int:
    if args.subcommand == "export":
        rng = np.random.default_rng(np.random.SeedSequence(args.seed))
        bundle = hsmini.OracleBundle(args.n, rng)
        if not 0 <= args.touch <= 1 << args.n:
            raise ValueError(f"touch must lie in [0, 2^n] = [0, {1 << args.n}] at n={args.n}, got {args.touch}")
        for r in range(args.touch):
            bundle.generator(r)
        with open(args.out, "w") as fh:
            fh.write(bundle.export_json() + "\n")
        print(f"exported {args.touch} entries at n={args.n} to {args.out}")
        return EXIT_OK
    with open(args.snapshot) as fh:
        bundle = hsmini.OracleBundle.import_json(fh.read(), np.random.default_rng(0))
    entries = len(bundle.snapshot()["entries"])
    print(f"imported bundle: n={bundle.n}, {entries} entries")
    return EXIT_OK


_COMMANDS = {
    "catalog": _cmd_catalog,
    "run": _cmd_run,
    "mint-explicit": _cmd_mint_explicit,
    "verify-explicit": _cmd_verify_explicit,
    "attack-d1": _cmd_attack_d1,
    "wiesner": _cmd_wiesner,
    "keyed": _cmd_keyed,
    "bundle": _cmd_bundle,
}


def main(argv: Optional[List[str]] = None) -> int:
    # the one error boundary: bad flags, bad input, unreadable or unwritable
    # files and unknown keys end in one line on stderr and exit code 2
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
