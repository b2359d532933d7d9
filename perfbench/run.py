"""hsmoney benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload reverify --seed 113 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in a fresh child process.
With --trace 0 the run reports the end-to-end metrics; set-up time is the
median over several process starts. With --trace 1 it reports the per-layer
metrics of one traced round instead. The last line of standard output is one
JSON object; the exit code is 0 only when every check passed and no operation
failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 5  # process starts whose set-up time is measured, the timed one included


def deadline_s(seconds: float) -> float:
    """Time after which the children are stopped: set-up allowance plus
    twice the measured time, which leaves room for the rounds a run must
    make however slow the host is."""
    return 120 + 2 * seconds


class ChildFailed(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="hsmoney benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the workload's acceptance seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "measure"), default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# child process: import, build inputs, say "ready", then measure


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that `finally` blocks and pool
    shutdown run before the process ends."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def child(args: argparse.Namespace) -> int:
    _exit_on_sigterm()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = wl.default_seed if args.seed is None else args.seed
    workloads.round_configs(wl, seed, 0)
    print("ready", flush=True)
    if args.role == "setup":
        return 0
    if args.trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        result = workloads.run_traced(wl, seed, args.seconds, out_dir / f"{wl.name}.spans.npz")
    else:
        result = workloads.run_plain(wl, seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent process


def spawn(args: argparse.Namespace, role: str, deadline: float):
    """Run a child; returns (seconds from spawn to its "ready", its output
    after that line)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.terminate)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise ChildFailed(f"{role} process exited with code {proc.returncode}")
    return setup, rest


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        return child(args)
    _exit_on_sigterm()
    if not (ROOT / "src" / "hsmoney" / "__init__.py").is_file():
        print(f"no hsmoney sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + deadline_s(args.seconds)
    try:
        setups = [] if args.trace else [spawn(args, "setup", deadline)[0] for _ in range(SETUP_STARTS - 1)]
        setup, output = spawn(args, "measure", deadline)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    result = json.loads(output.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        setups.append(setup)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    print(f"workload {args.workload}: {result['rounds']} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, ok, detail in result["checks"]:
        print(f"  check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    print("  inherited thread settings: " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
