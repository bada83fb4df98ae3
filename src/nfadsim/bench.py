"""Backend benchmark: numba-compiled kernels against the Python fallback.

Run as ``python -m nfadsim.bench``.  Each hot kernel is executed with
identical random substreams on both paths; outputs must agree exactly (the
kernels draw scalars in a fixed order), so the benchmark doubles as an
equivalence smoke check.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from . import _kernels, calibration
from ._backend import USE_NUMBA, backend_name
from .detector import _kernel_args
from .engine import RandomStream, seconds_to_ps
from .params import DarkRateModel, TrapModel
from .qkd import LinkConfig, QkdOperatingPoint, _data_budget

_KERNEL_GENS = ("darks", "photons", "traps", "jitter", "background")


def _free_run_call(duration: float):
    det = dataclasses.replace(
        calibration.make_detector(-90.0, 0.115, 20e-6),
        dark_model=DarkRateModel(amplitude_thermal=0.0,
                                 activation_temperature=0.0, floor=20e3,
                                 efficiency_exponent=0.0,
                                 efficiency_ref=0.115),
        trap_model=TrapModel(mean_traps_per_avalanche=0.5,
                             efficiency_exponent=1.0, efficiency_ref=0.115,
                             release_components=((1.0, 5e-6, 500.0),),
                             reference_temperature=183.15))
    args = _kernel_args(det)
    empty_t = np.empty(0, np.int64)
    empty_p = np.empty(0, np.float64)

    def call(kernel, seed: int):
        with RandomStream(seed).uniforms(_KERNEL_GENS) as gens:
            return kernel(seconds_to_ps(duration), args["deadtime_ps"],
                          args["dark_rate"], 0.0, empty_t, empty_p,
                          args["traps"], args["jitter"], gens["darks"],
                          gens["photons"], gens["traps"], gens["jitter"],
                          gens["background"])

    return call


def _qkd_data_call(frames: int):
    det = calibration.make_detector(-90.0, 0.115, 10e-6)
    cfg = LinkConfig(channel_loss_db=10.0)
    args = _kernel_args(det)
    p_sig, p_dk = _data_budget(cfg, QkdOperatingPoint(det, det))
    frame_ps = seconds_to_ps(2.0 / cfg.pulse_rate)

    def call(kernel, seed: int):
        with RandomStream(seed).uniforms(
                ("darks", "photons", "traps", "jitter", "bits")) as gens:
            return kernel(frames, frame_ps, frame_ps // 2,
                          args["deadtime_ps"], p_sig, cfg.optical_error,
                          args["dark_rate"], args["traps"], args["jitter"],
                          gens["darks"], gens["photons"], gens["traps"],
                          gens["jitter"], gens["bits"])

    return call


def _time(call, kernel, seed: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call(kernel, seed)
        best = min(best, time.perf_counter() - t0)
    return best


def _flatten(result):
    if isinstance(result, tuple):
        return tuple(np.asarray(part).tolist() for part in result)
    return np.asarray(result).tolist()


def run(repeat: int = 3, seed: int = 42, duration: float = 1.0,
        frames: int = 30_000_000) -> int:
    jobs = [
        (f"free_run (20 kcps darks, {duration:g} s)", _kernels.free_run,
         _free_run_call(duration)),
        (f"qkd_data (L=10 dB, {frames:.1e} frames)", _kernels.qkd_data,
         _qkd_data_call(frames)),
    ]
    print(f"active backend: {backend_name()}")
    if not USE_NUMBA:
        print("numba inactive (missing or NFADSIM_DISABLE_NUMBA set); "
              "timing the Python path only")
    rows = []
    for label, kernel, call in jobs:
        if USE_NUMBA:
            call(kernel, seed)                       # pay compilation once
            fast = _time(call, kernel, seed, repeat)
            ref = _flatten(call(kernel, seed))
            slow = _time(call, kernel.py_func, seed, repeat)
            match = _flatten(call(kernel.py_func, seed)) == ref
            rows.append((label, fast, slow, slow / fast, match))
        else:
            slow = _time(call, kernel, seed, repeat)
            rows.append((label, None, slow, None, True))

    width = max(len(r[0]) for r in rows)
    for label, fast, slow, ratio, match in rows:
        fast_s = f"{fast * 1e3:9.2f} ms" if fast is not None else "        --"
        ratio_s = f"{ratio:6.1f}x" if ratio is not None else "     --"
        print(f"{label:<{width}}  numba {fast_s}  python {slow * 1e3:9.2f} ms"
              f"  speedup {ratio_s}  outputs {'match' if match else 'DIFFER'}")
    return 0 if all(r[4] for r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m nfadsim.bench",
        description="Benchmark the compiled kernels against the "
                    "pure-Python fallback")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best of N)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration", type=float, default=1.0,
                        help="simulated seconds for the free-run job")
    parser.add_argument("--frames", type=int, default=30_000_000,
                        help="bit frames for the QKD job")
    args = parser.parse_args(argv)
    return run(repeat=args.repeat, seed=args.seed, duration=args.duration,
               frames=args.frames)


if __name__ == "__main__":
    sys.exit(main())
