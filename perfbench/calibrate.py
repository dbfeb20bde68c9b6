"""Measure the single-executor capacity behind ``serve_open``'s arrival rate.

    python3 perfbench/calibrate.py [--seconds 20] [--seed 1]

Sends the ``serve_open`` wave mix closed-loop — each wave submitted as soon
as the previous drain returned — and prints the waves per second served.
``wl_serve.WAVE_RATE`` is set to about a sixth of this figure; re-run it
and update the constant (and README.md) when the host changes.
"""

from __future__ import annotations

import run  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import sys
import time


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    sys.path.insert(0, str(run.SRC))
    from wl_serve import WAVE_RATE, ServeOpen, precision

    wl = ServeOpen()
    state = wl.setup(args.seed)
    svc = state["service"]
    waves = wl.schedule(state, args.seconds)
    served = 0
    t0 = time.perf_counter()
    for wave in waves:
        for b in wave.bs:
            svc.submit(wave.a, b, precision=precision(wave.tenant), tenant=f"t{wave.tenant}")
        svc.drain()
        served += 1
        if time.perf_counter() - t0 > args.seconds:
            break
    rate = served / (time.perf_counter() - t0)
    print(f"capacity {rate:.3f} waves/s; WAVE_RATE {WAVE_RATE:g} is {WAVE_RATE / rate:.0%} of it")


if __name__ == "__main__":
    main()
