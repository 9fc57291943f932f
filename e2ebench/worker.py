"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` starts this script once per set-up sample and once for the
measured run, one process at a time, with ``PYTHONPATH`` pointing at the
checkout's ``src``. It prints one JSON object on stdout; diagnostics go
to stderr. The speed probe starts before the simulator is imported, so
set-up time is calibrated like every other time (``speed.py``).
"""

import argparse
import json
import sys
from pathlib import Path

import speed


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--t0",
        type=float,
        required=True,
        help="the parent's time.monotonic() just before it started this process",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse_args(argv)
    log = speed.SpeedLog(args.workdir)
    log.start()
    try:
        import workloads  # the simulator's imports count as set-up

        report = workloads.measure(args, log, args.t0)
    finally:
        log.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
