"""Record every workload part's output digest at the default seed.

    python3 perfbench/record_digests.py

``run.py`` fails every operation of a default-seed run whose output differs
from the digest recorded in ``digests.json``.  Re-record only in a change
that alters nfadsim's outputs on purpose and says so, as with
``simulate_reference``.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.bootstrap()
    import workloads

    digests = {}
    for name in sorted(workloads.WORKLOADS):
        workdir = run.WORK / f"record-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            for part in workloads.build(name, run.DEFAULT_SEED, workdir):
                part.prepare()
                output = part.run_pass(part.workdir / "out")
                digests[part.name] = part.digest(output)
                print(f"{part.name}: {digests[part.name]}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if run.WORK.is_dir() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
