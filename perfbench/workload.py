"""One workload process: set up, optionally run the timed rounds, print JSON.

Started by ``run.py`` with a fresh environment (cache directories, thread
settings); not meant to be run by hand. ``--stage setup`` sets up, tears
down and reports only its set-up time; ``--stage full`` goes on to the
timed rounds and their checks.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

import pipeline
from common import FULL, ROUND, SMALL, SMALL_ROUND, Checks, emit, host_record


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=FULL, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--stage", choices=("setup", "full"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    # a terminated run still tears down: stops its server and client processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    cfg = (SMALL if args.small else FULL)[args.workload]
    rnd = SMALL_ROUND if args.small else ROUND
    state = pipeline.setup(cfg, rnd, args.small, args.seed, args.work)
    setup_s = time.monotonic() - args.t0
    ck = Checks()
    try:
        if args.stage == "setup":
            emit({"setup_s": setup_s})
            return
        metrics = pipeline.run(state, cfg, rnd, args.seed, args.seconds, bool(args.trace), ck)
    finally:
        pipeline.teardown(state)
    emit({"setup_s": setup_s, "metrics": metrics, "attempted": ck.attempted,
          "failed": ck.failed, "unexpected": ck.unexpected, "failures": ck.failures,
          "host": host_record()})


if __name__ == "__main__":
    main()
