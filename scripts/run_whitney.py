"""Whitney extension demo on a random sine jet field.

Samples points in [0, 1], attaches the exact order-2 jets of sin, runs the
extension, and reports the consistency functional, interpolation defects,
and the empirical Hoelder constant of the extension.  The last line gives
the process CPU seconds of the extend, eval and Hoelder steps.
"""

import argparse
import math
import sys
import time

import numpy as np

from ptdiff import (JetField, MultiIndex, PolyJet, empirical_hoelder, extend,
                    rho)


def sine_field(points, degree=2, alpha=1.0):
    jets = []
    for p in points:
        cycle = [math.sin(p), math.cos(p), -math.sin(p), -math.cos(p)]
        jets.append(PolyJet.from_coeff_map(
            1, [p], {(m,): cycle[m] for m in range(degree + 1)}))
    return JetField(tuple((float(p),) for p in points), tuple(jets),
                    degree, alpha)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=50)
    ap.add_argument("--pairs", type=int, default=10 ** 4,
                    help="sample pairs for the empirical Hoelder constant")
    ap.add_argument("--seed", type=int, default=12)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    pts = np.sort(rng.uniform(0.0, 1.0, size=args.points))
    F = sine_field(pts)
    for delta in (1.0, 0.5, 0.1):
        print(f"rho(F, {delta}) = {rho(F, delta):.6e}")
    t0 = time.process_time()
    ext = extend(F)
    t1 = time.process_time()
    print(f"gate constant kappa_F = {ext.kappa_F:.6e}")
    worst = 0.0
    cycle = [np.sin(pts), np.cos(pts), -np.sin(pts)]
    got = ext.eval(pts[:, None], [MultiIndex((m,)) for m in range(3)])[:, :, 0]
    for m in range(3):
        worst = max(worst, float(np.max(np.abs(got[:, m] - cycle[m]))))
    t2 = time.process_time()
    print(f"worst interpolation defect over D^0..D^2: {worst:.2e}")
    semi, c_impl = empirical_hoelder(ext, pair_count=args.pairs)
    t3 = time.process_time()
    print(f"empirical Hoelder seminorm {semi:.4g}, C_impl {c_impl:.4g} "
          f"over {args.pairs} pairs")
    print(f"process CPU s: extend {t1 - t0:.3f}, eval {t2 - t1:.3f}, "
          f"Hoelder {t3 - t2:.3f}")
    return 0 if worst <= 1e-8 else 1


if __name__ == "__main__":
    sys.exit(main())
