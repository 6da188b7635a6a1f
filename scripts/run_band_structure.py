#!/usr/bin/env python3
"""Band functions and spectral gaps of a periodic reference medium.

Example:
    python3 scripts/run_band_structure.py --m 4 --low 1.0 --high 4.0 --n-theta 128
"""

import argparse

import numpy as np

from lifshitz_lab import PeriodicBackground, floquet_bands, spectral_gaps


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--m", type=int, default=4, help="mesh cells per period")
    ap.add_argument("--low", type=float, default=1.0)
    ap.add_argument("--high", type=float, default=4.0)
    ap.add_argument("--n-theta", type=int, default=128)
    ap.add_argument("--identity", action="store_true",
                    help="use the homogeneous medium instead of two-phase")
    args = ap.parse_args()

    if args.identity:
        bg = PeriodicBackground.identity(args.d, args.m)
    else:
        bg = PeriodicBackground.two_phase(m=args.m, low=args.low, high=args.high,
                                          d=args.d)
    bands = floquet_bands(bg, n_theta=args.n_theta)
    ranges = bands.band_ranges()
    print(f"{len(ranges)} bands over {bands.bands.shape[0]} quasimomenta")
    for i, (lo, hi) in enumerate(ranges):
        print(f"  band {i:3d}: [{lo:12.6f}, {hi:12.6f}]  width {hi - lo:10.6f}")
    gaps = spectral_gaps(bands)
    if not gaps:
        print("no spectral gaps found")
    for lo, hi, below, above in gaps:
        print(f"gap ({lo:12.6f}, {hi:12.6f})  width {hi - lo:10.6f}  "
              f"between bands {below} and {above}")


if __name__ == "__main__":
    main()
