"""Self-checks of the benchmark harness, at a smoke size.

    python3 perfbench/selfcheck.py

For every workload part: a traced pass writes the same bytes as an untraced
one, every binding the tracer patched holds its original object afterwards,
and the output checks pass.  For every workload, the set-up probe reaches
the first simulation call.
The metric names ``run.py`` emits must match ``BENCHMARK.json``, and the
whole smoke run must finish within ``SMOKE_BUDGET_S``.  Exits 1 on any
failure.
"""

import json
import shutil
import sys
import time

import run
import tracer

SMOKE_BUDGET_S = 60.0


def check_part(part, sites) -> list:
    problems = []
    part.prepare()
    plain = part.run_pass(part.workdir / "plain")
    before = {site: tracer.bindings(tracer.resolve(site)) for site in sites}
    with tracer.Tracer(sites) as t:
        traced = part.run_pass(part.workdir / "traced")
    if not t.restored():
        problems.append("a patched binding was not restored")
    for site, sites in before.items():
        if tracer.bindings(tracer.resolve(site)) != sites:
            problems.append(f"bindings of {site.module}.{site.attr} changed")
    if not t.spans:
        problems.append("the traced pass recorded no span")
    if part.digest(plain) != part.digest(traced):
        problems.append("traced pass wrote other bytes than untraced pass")
    return problems + part.check(plain)


def check_names(workloads) -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END):
        problems.append("end_to_end names differ from run.END_TO_END")
    emitted = run.per_layer([], 0.0, {}, 0, workloads.PART_UNITS)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != {k: v["unit"] for k, v in emitted.items()}:
        problems.append("per_layer names or units differ from run.per_layer")
    if sorted(w["name"] for w in spec["workloads"]) != \
            sorted(workloads.WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    return problems


def main() -> int:
    start = time.perf_counter()
    env = run.bootstrap()
    import workloads

    results = [("names", check_names(workloads))]
    for name in workloads.WORKLOADS:
        workdir = run.WORK / f"selfcheck-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            for part in workloads.build(name, run.DEFAULT_SEED, workdir,
                                        "smoke"):
                results.append((part.name,
                                check_part(part, workloads.SITES)))
            run.measure_setup(name, run.DEFAULT_SEED, workdir, env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    failures = 0
    for name, problems in results:
        failures += len(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for message in problems:
            print(f"     {message}")
    elapsed = time.perf_counter() - start
    if elapsed > SMOKE_BUDGET_S:
        failures += 1
        print(f"FAIL smoke run took {elapsed:.1f} s (budget "
              f"{SMOKE_BUDGET_S:.0f} s)")
    if run.WORK.is_dir() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    print(f"selfcheck: {failures} problem(s) in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
