"""Set-up probe: one fresh interpreter, stopped at the first simulation call.

``run.py`` starts this script several times and times each start until the
line ``ready`` arrives.  That span is what a CLI user pays before any
simulation: interpreter start, ``import nfadsim``, config parsing, and
building or validating the workload's detectors.  The probe builds every
part of the workload, then runs the first part with its first simulation
call replaced by one that prints ``ready`` and ends the process, so nothing
after set-up runs.

    python3 perfbench/probe.py --workload NAME --seed N --workdir DIR
"""

import argparse
import importlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import nfadsim  # noqa: F401  (part of the set-up being timed)
    import tracer
    import workloads

    parts = workloads.build(args.workload, args.seed, args.workdir)
    module, attr = parts[0].first_simulation
    first = getattr(importlib.import_module(module), attr)

    def stop(*_args, **_kwargs):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    tracer.Patch().replace(first, stop)
    parts[0].run_pass(parts[0].workdir / "probe_out")
    print(f"{args.workload} finished without calling {module}.{attr}",
          file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
