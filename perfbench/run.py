"""End-to-end benchmark of the repro package: workloads gp and hp.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gp --seed 1 --seconds 40 --trace 0

Each workload runs in fresh processes (``workload.py``) with new, empty
``REPRO_CACHE_DIR`` and ``REPRO_ENGINE_STORE_DIR`` directories under
``.perfbench_work/`` and one BLAS thread. Untraced runs (``--trace 0``) set
up ``SETUP_REPEATS`` times, each in its own process, report the median
set-up time and time the workload in the last process; they print the
end-to-end metrics. Traced runs (``--trace 1``) set up once and print the
per-layer metrics. The last line of standard output is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier
lines record the host and any failed checks. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gp", "hp")
#: Set-ups per untraced run, each in its own process; setup_s is their median.
SETUP_REPEATS = 3
#: Whole-run ceiling: a run that has not finished by then is stopped and fails.
RUN_LIMIT_S = 150.0
#: How long a stopped stage may take to tear down before it is killed.
STOP_GRACE_S = 20.0


def _env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_THREADS", None)  # the engine runs at the program's default
    # the server's process pool puts a unix socket under $TMPDIR; keep it in
    # the checkout unless that path would pass the 107-byte socket limit
    tmp = work / "t"
    if len(os.fsencode(tmp)) + len("/pymp-12345678/listener-12345678") <= 107:
        tmp.mkdir()
        env["TMPDIR"] = str(tmp)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_ENGINE_STORE_DIR=str(work / "engines"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _run_stage(args, stage: str, work: Path, deadline: float) -> dict:
    """One workload process; returns the JSON object it printed last."""
    work.mkdir(parents=True)
    env = _env(work)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--stage", stage, "--work", str(work)]
    if args.small:
        cmd.append("--small")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        # SIGTERM lets the stage stop its server and clients before it exits
        proc.terminate()
        try:
            proc.communicate(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"{args.workload} {stage} stage overran the run limit")
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload} {stage} stage exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="self-test mode: tiny inputs, figures meaningless")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    stages = ["full"] if args.trace else ["setup"] * (SETUP_REPEATS - 1) + ["full"]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="", dir=ROOT / ".perfbench_work"))
    try:
        results = [_run_stage(args, s, work / str(i), deadline) for i, s in enumerate(stages)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass  # another run's directory is still there
    full = results[-1]
    metrics = dict(full["metrics"])
    traced_e2e = metrics.pop("traced_end_to_end", None)
    if not args.trace:
        setup_s = statistics.median(r["setup_s"] for r in results)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}

    print("host: " + json.dumps(full["host"]))
    if traced_e2e is not None:
        print("traced end-to-end: " + json.dumps(traced_e2e))
    if full["failures"]:
        print("failed checks: " + json.dumps(full["failures"]))
    print(json.dumps({
        "correct": full["unexpected"] == 0,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
