"""nfadsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory, on the pure-Python backend (``NFADSIM_DISABLE_NUMBA=1``), in this
single-threaded process.

A run measures set-up in fresh interpreters (``probe.py``), then repeats the
workload's pass (its parts, one after the other) with the same inputs for
``--seconds`` seconds, then checks the outputs, untimed.  With ``--trace 0`` every pass is untraced and the
end-to-end metrics are printed.  With ``--trace 1`` untraced and traced
passes alternate: the traced ones give the per-layer metrics, and the ratio
of the two mean pass times is the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A manifest with the
machine, versions, git revision and every raw value goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 50
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

# Pinned before nfadsim or numpy is imported, here and in every probe.
ENVIRONMENT = {"NFADSIM_DISABLE_NUMBA": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


# --------------------------------------------------------------- set-up time

def measure_setup(name: str, seed: int, workdir: Path, env: dict) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--workload", name,
             "--seed", str(seed), "--workdir", str(workdir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=str(ROOT), text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{proc.returncode}): {err.strip()}")
        samples.append(elapsed)
    return samples


# -------------------------------------------------------------------- passes

class Pass:
    """Timings and results of one pass; dicts are keyed by part name."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.part_s = {}
        self.items = {}
        self.errors = {}
        self.digests = {}
        self.coverage = None
        self.layers = {}
        self.counts = {}

    @property
    def wall_s(self) -> float:
        return sum(self.part_s.values())

    def record(self) -> dict:
        return {"index": self.index, "traced": self.traced,
                "wall_s": self.wall_s, "part_s": self.part_s,
                "items": self.items, "errors": self.errors,
                "digests": self.digests, "coverage": self.coverage}


def run_pass(parts, index: int, tracer_obj):
    """One pass over every part; traced when ``tracer_obj`` is given."""
    p = Pass(index, tracer_obj is not None)
    outputs = {}
    gc.collect()
    if p.traced:
        tracer_obj.reset()
    with tracer_obj if p.traced else contextlib.nullcontext():
        for part in parts:
            start = time.perf_counter()
            try:
                outputs[part.name] = part.run_pass(
                    part.workdir / f"pass{index}")
            except Exception as exc:  # a failed operation, counted later
                p.errors[part.name] = f"{type(exc).__name__}: {exc}"
            p.part_s[part.name] = time.perf_counter() - start
    if p.traced:
        if not tracer_obj.restored():
            raise RuntimeError("tracer left a patched binding behind")
        p.layers, covered = tracer.summarize(tracer_obj.spans)
        p.coverage = covered / p.wall_s
        p.counts = dict(tracer_obj.counts)
    for part in parts:
        if part.name in outputs:
            p.items[part.name] = part.items(outputs[part.name])
            p.digests[part.name] = part.digest(outputs[part.name])
    return p, outputs


def run_passes(parts, seconds: float, tracer_obj):
    """Alternate untraced and (with a tracer) traced passes for ``seconds``.

    Returns the passes, each part's first successful output and the spans
    of the traced passes.  Later outputs are deleted once digested.
    """
    passes, first, spans = [], {}, []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer_obj is not None and len(passes) % 2 == 1
        p, outputs = run_pass(parts, len(passes),
                              tracer_obj if traced else None)
        if traced:
            spans.append(tracer_obj.spans)
        for part in parts:
            out = outputs.get(part.name)
            if out is not None and part.name not in first:
                first[part.name] = out
            outdir = part.workdir / f"pass{p.index}"
            if outdir.exists() and out is not first.get(part.name):
                shutil.rmtree(outdir)
        passes.append(p)
        if time.perf_counter() >= deadline and \
                (tracer_obj is None or len(passes) >= 2):
            return passes, first, spans


def tally(parts, passes, first, seed: int, recorded: dict):
    """Failed operations and their reasons.

    A part that raised in a pass, or wrote other bytes than in its first
    pass, fails all its operations of that pass.  At the default seed each
    part's bytes must match the recorded digest.  A failed output check
    fails its operation in every pass.
    """
    failed, problems = 0, []
    for part in parts:
        ops = part.ops_per_pass()
        reference = next((p.digests[part.name] for p in passes
                          if part.name in p.digests), None)
        if seed == DEFAULT_SEED and part.name in recorded \
                and recorded[part.name] != reference:
            problems.append(f"{part.name}: output digest {reference} differs "
                            f"from the one recorded for seed {seed}")
            bad = ops
        elif part.name in first:
            try:
                checks = part.check(first[part.name])
            except Exception as exc:  # unreadable output fails the part
                checks = [f"check raised {type(exc).__name__}: {exc}"] * ops
            problems.extend(f"{part.name}: {c}" for c in checks)
            bad = min(ops, len(checks))
        else:
            bad = ops
        for p in passes:
            if part.name in p.errors:
                problems.append(f"{part.name} pass {p.index}: "
                                f"{p.errors[part.name]}")
                failed += ops
            elif p.digests[part.name] != reference:
                problems.append(f"{part.name} pass {p.index} wrote other "
                                f"bytes than its first pass")
                failed += ops
            else:
                failed += bad
    return failed, problems


def part_rates(passes, name: str) -> tuple[float, float]:
    """Mean seconds of one part per pass, and its items per second."""
    done = [p for p in passes if name in p.items]
    secs = sum(p.part_s[name] for p in done)
    if not secs:
        return 0.0, 0.0
    return secs / len(done), sum(p.items[name] for p in done) / secs


# ------------------------------------------------------------------- metrics

def per_layer(passes, overhead: float, derived: dict, src_lines: int,
              part_units: dict):
    """Per-layer metrics: means per traced pass, plus derived figures.

    Part times and throughputs come from the untraced passes.  Parts and
    layers a workload does not run report 0.
    """
    traced = [p for p in passes if p.traced and not p.errors]
    plain = [p for p in passes if not p.traced]
    n = max(1, len(traced))
    calls, secs, own, counts = {}, {}, {}, {}
    for p in traced:
        for name, t in p.layers.items():
            calls[name] = calls.get(name, 0) + t.calls
            secs[name] = secs.get(name, 0.0) + t.total_s
            own[name] = own.get(name, 0.0) + t.self_s
        for name, c in p.counts.items():
            counts[name] = counts.get(name, 0) + c

    def s(name):
        return secs.get(name, 0.0) / n

    def per(name, scale, count):
        return secs.get(name, 0.0) * scale / count if count else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, unit in part_units.items():
        part_s, rate = part_rates(plain, name)
        put(f"{name}.s", part_s, "s")
        put(f"{name}.{unit}_per_s", rate, "1/s")

    for kernel, count in (("free_run", "clicks"), ("characterize", "pulses"),
                          ("qkd_data", "sifted"), ("qkd_monitor", "clicks")):
        key = f"kernels.{kernel}"
        put(f"{key}.s", s(key), "s")
        put(f"{key}.calls", calls.get(key, 0) / n, "count")
        put(f"{key}.{count}", counts.get(key, 0) / n, "count")
        put(f"{key}.ns_per_{count.rstrip('s')}",
            per(key, 1e9, counts.get(key, 0)), "ns")
    put("detector.simulate.self_s", own.get("detector.simulate", 0.0) / n,
        "s")
    put("engine.timeline_to_ps.s", s("engine.timeline_to_ps"), "s")
    put("characterize.run_protocol.self_s",
        own.get("characterize.run_protocol", 0.0) / n, "s")
    put("characterize.measure_jitter_histogram.s",
        s("characterize.measure_jitter_histogram"), "s")
    put("characterize.tcspc_widths.s", s("characterize.tcspc_widths"), "s")
    put("qkd.link_metrics.calls", calls.get("qkd.link_metrics", 0) / n,
        "count")
    put("qkd.link_metrics.s", s("qkd.link_metrics"), "s")
    put("qkd.link_metrics.us_per_call",
        per("qkd.link_metrics", 1e6, calls.get("qkd.link_metrics", 0)),
        "us")
    put("qkd.simulate_session.self_s",
        own.get("qkd.simulate_session", 0.0) / n, "s")
    put("optimize.optimize.self_s", own.get("optimize.optimize", 0.0) / n,
        "s")
    put("optimize.grid_points", derived.get("optimize.grid_points", 0.0),
        "count")
    put("optimize.positive_skr_frac",
        derived.get("optimize.positive_skr_frac", 0.0), "fraction")
    put("calibration.make_detector.calls",
        calls.get("calibration.make_detector", 0) / n, "count")
    put("calibration.make_detector.s", s("calibration.make_detector"), "s")
    write_s = s("cli.write")
    write_bytes = counts.get("cli.write", 0) / n
    put("cli.write.s", write_s, "s")
    put("cli.write.bytes", write_bytes, "bytes")
    put("cli.write.mb_per_s", write_bytes / 1e6 / write_s if write_s else 0.0,
        "MB/s")
    put("config.parse_config.s", s("config.parse_config"), "s")
    put("clickstream.live_frac", derived.get("clickstream.live_frac", 0.0),
        "fraction")
    put("trace.coverage", _median([p.coverage for p in traced]), "fraction")
    put("trace.overhead_frac", overhead, "fraction")
    put("src.lines", float(src_lines), "lines")
    return m


# ------------------------------------------------------------------ manifest

def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def src_line_count() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def machine() -> dict:
    import numpy
    from nfadsim._backend import backend_name
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "backend": backend_name(), "git_revision": git_revision()}


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,index,name,start_ns,end_ns,parent\n")
        for k, pass_spans in enumerate(spans):
            for i, s in enumerate(pass_spans):
                fh.write(f"{k},{i},{s.name},{s.start_ns},{s.end_ns},"
                         f"{s.parent}\n")


# ---------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bootstrap() -> dict:
    """Pin the environment and put ``src/`` first on the import path."""
    if not (SRC / "nfadsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no nfadsim sources under {SRC}")
    os.environ.update(ENVIRONMENT)
    sys.path[:0] = [str(SRC), str(HERE)]
    import nfadsim
    if Path(nfadsim.__file__).resolve().parent != (SRC / "nfadsim").resolve():
        raise SystemExit(f"error: imported nfadsim from {nfadsim.__file__}, "
                         f"not from {SRC}")
    return dict(os.environ)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, env, workdir, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, env, workdir, workloads) -> int:
    parts = workloads.build(args.workload, args.seed, workdir)
    for part in parts:
        part.prepare()
    setup = measure_setup(args.workload, args.seed, workdir, env)

    trace_obj = tracer.Tracer(workloads.SITES) if args.trace else None
    passes, first, spans = run_passes(parts, args.seconds, trace_obj)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems = tally(parts, passes, first, args.seed,
                             workloads.load_digests(HERE / "digests.json"))
    attempted = len(passes) * sum(part.ops_per_pass() for part in parts)
    derived = {}
    for part in parts:
        if part.name in first:
            derived.update(part.layer_counts(first[part.name]))

    # Run averages, not medians: this machine's speed switches between
    # phases of several seconds, so pass times are bimodal and their median
    # jumps between modes; the average over the run is steadier.
    walls = [p.wall_s for p in passes if not p.traced]
    if args.trace:
        traced = [p.wall_s for p in passes if p.traced]
        overhead = statistics.mean(traced) / statistics.mean(walls) - 1.0
        metrics = per_layer(passes, overhead, derived, src_line_count(),
                            workloads.PART_UNITS)
    else:
        values = (statistics.mean(walls), _median(setup), peak_rss_mb)
        metrics = {name: {"value": v, "unit": u} for name, v, u
                   in zip(END_TO_END, values, ("s", "s", "MB"))}

    report(args, parts, passes, setup, peak_rss_mb, attempted, failed,
           problems, metrics)
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
            f"{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}")
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "parts": {part.name: {"size": part.size, "item_unit": part.item_unit,
                              "ops_per_pass": part.ops_per_pass()}
                  for part in parts},
        "environment": ENVIRONMENT, "machine": machine(),
        "src_lines": src_line_count(), "setup_s_samples": setup,
        "peak_rss_mb": peak_rss_mb, "passes": [p.record() for p in passes],
        "attempted": attempted, "failed": failed, "problems": problems,
        "derived": derived, "metrics": metrics,
    }
    if spans:
        write_spans(RESULTS / f"{stem}.spans.csv.gz", spans)
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(args, parts, passes, setup, peak_rss_mb, attempted, failed,
           problems, metrics) -> None:
    plain = [p for p in passes if not p.traced]
    walls = [p.wall_s for p in plain]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(walls)} untraced passes")
    t = tail(walls)
    tail_text = f"p{t[0]} {t[1]:.4f} s" if t else \
        f"max {max(walls):.4f} s (too few samples for a tail percentile)"
    print(f"  wall_s            mean {statistics.mean(walls):.4f} s, median "
          f"{_median(walls):.4f} s, {tail_text}, n={len(walls)}")
    print(f"  setup_s           median {_median(setup):.4f} s, "
          f"max {max(setup):.4f} s, n={len(setup)} fresh interpreters")
    print(f"  peak_rss_mb       {peak_rss_mb:.1f} MB")
    print(f"  ops_failed_frac   {failed}/{attempted} = "
          f"{failed / attempted:.4f}")
    for part in parts:
        secs, rate = part_rates(plain, part.name)
        print(f"  {part.name}: mean {secs:.4f} s, "
              f"{part.item_unit}_per_s {rate:.6g}")
    for message in problems:
        print(f"  FAILED: {message}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
