#!/usr/bin/env python3
"""Band-edge tail exponent of the long-range coupled lattice model.

Samples the counting function just above the spectral bottom over a Monte
Carlo ensemble, then fits log|log dN| against log eps.  With uniform
couplings the fitted slope lands near -1/2 - 1/ln(1/eps) at reachable eps;
see README for why the asymptotic -(d/2 + kappa) is out of numerical reach.

Example:
    python3 scripts/run_tail_probe.py --k 32 --n-realizations 200
"""

import argparse

import numpy as np

from lifshitz_lab import DisorderSpec, anderson_ids, lifshitz_exponent, theoretical_exponent
from lifshitz_lab.curves import InsufficientDataError


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=1)
    ap.add_argument("--k", type=int, default=32, help="box half-side")
    ap.add_argument("--nu", type=float, default=4.0, help="coupling decay power")
    ap.add_argument("--law", default="uniform01",
                    choices=["uniform01", "kappa_tail"])
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--n-realizations", type=int, default=200)
    ap.add_argument("--eps-min", type=float, default=1e-2)
    ap.add_argument("--eps-max", type=float, default=0.3)
    ap.add_argument("--eps-count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args()

    disorder = DisorderSpec(law=args.law, kappa=args.kappa)
    eps = np.geomspace(args.eps_min, args.eps_max, args.eps_count)
    energies = np.concatenate([[0.0], eps])
    print(f"sampling {args.n_realizations} realizations on the side-{2*args.k+1} box ...")
    curve = anderson_ids(disorder, args.d, args.k, args.nu, energies,
                         n_realizations=args.n_realizations, seed=args.seed)

    kappa = disorder.tail_index
    kind = "short_range" if args.nu > args.d + 2 else "long_range"
    target = theoretical_exponent(args.d, kappa, kind,
                                  nu=None if kind == "short_range" else args.nu)
    try:
        fit = lifshitz_exponent(curve, 0.0, eps, n_boot=1000, seed=202)
    except InsufficientDataError as exc:
        print(f"no fit: {exc}")
        print("increase --n-realizations, --k, or --eps-count")
        return
    print(f"double-log slope: {fit.slope:.4f}  (95% CI [{fit.ci_lo:.4f}, {fit.ci_hi:.4f}])")
    print(f"r2 = {fit.r2:.5f} on {fit.n_points} admissible points")
    if target is not None:
        print(f"asymptotic target: {target:.4f}")
    for e, dn in zip(fit.eps_used, fit.dN_used):
        print(f"  eps {e:8.5f}  dN {dn:.6e}")


if __name__ == "__main__":
    main()
