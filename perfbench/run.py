"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload litmus_portfolio --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``litmus_portfolio``, ``sekvm_wdrf``, ``serve_mixed``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones (see NOTES.md).

Every measurement runs in a fresh interpreter with every ``REPRO_*``
variable removed, ``PYTHONHASHSEED`` pinned and the exploration caches
pointed at a per-run directory under ``.perfbench_runs/``.  ``setup_s``
is the median over several fresh interpreters that only set up, each
timed on the calibrated clock of ``hostspeed.py``.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The program fails without a result when the repository
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.hostspeed import REFERENCE_PROBE_S, probe  # noqa: E402

WORKLOADS = ("litmus_portfolio", "sekvm_wdrf", "serve_mixed")

#: Set-up-only interpreters per run; ``setup_s`` is their median.
SETUP_RUNS = 5

#: The whole run must end within this many seconds.
DEADLINE_S = 170.0

#: Files the benchmark cannot run without.
REQUIRED = (
    os.path.join("src", "repro", "__init__.py"),
    os.path.join("tests", "corpus", "litmus_digests.json"),
    os.path.join("tests", "corpus", "portability_verdicts.json"),
)


def hermetic_env(run_dir: str, workload: str) -> dict:
    """The child's environment: no ``REPRO_*`` but the cache settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["REPRO_EXPLORE_CACHE_DIR"] = os.path.join(run_dir, "cache")
    # Batch passes run cold; serve uses a fresh per-run disk layer.
    env["REPRO_EXPLORE_CACHE"] = "1" if workload == "serve_mixed" else "0"
    return env


def run_child(args, run_dir: str, setup_only: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, "--run-dir", run_dir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=hermetic_env(run_dir, args.workload),
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, timeout),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"measured process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def calibrated_setups(args, run_dir: str, deadline: float) -> list:
    """Set-up times of fresh interpreters, in seconds of the reference
    host: each is scaled by the mean speed factor of host-speed probes
    taken here just before and just after it."""
    setups, raws = [], []
    before = probe()
    for _ in range(SETUP_RUNS):
        left = deadline - time.monotonic()
        raws.append(run_child(args, run_dir, True, left)["setup_s"])
        after = probe()
        setups.append(raws[-1] * REFERENCE_PROBE_S
                      * (1 / before + 1 / after) / 2)
        before = after
    print("perfbench: setup_s samples " + " ".join(
        f"{c:.4f}({r:.4f} wall)" for c, r in zip(setups, raws)))
    return setups


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}",
              file=sys.stderr)
        return 2

    begin = time.monotonic()
    run_dir = os.path.join(
        ROOT, ".perfbench_runs",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}",
    )
    os.makedirs(run_dir, exist_ok=True)
    try:
        if not args.trace:
            setups = calibrated_setups(args, run_dir, begin + DEADLINE_S)
        left = DEADLINE_S - (time.monotonic() - begin)
        out = run_child(args, run_dir, False, left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(run_dir, "cache"), ignore_errors=True)
        if not args.trace:
            shutil.rmtree(run_dir, ignore_errors=True)

    if not args.trace:
        print(f"perfbench: wall-clock setup_s of the measured process "
              f"{out['metrics']['setup_s']['value']:.4f}")
        out["metrics"]["setup_s"]["value"] = statistics.median(setups)
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }
    fail_ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"perfbench: fail_ratio {fail_ratio:.6g} "
          f"({out['failed']} of {out['attempted']} verdicts failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
