"""Run the order classifier over every annotated corpus claim.

Prints one line per claim comparing the computed verdict against the
closed-form annotation, with the process CPU seconds and minor page faults
of its classify call, then the mismatches and the totals over all claims,
and optionally writes the decay envelopes as CSV.
"""

import argparse
import csv
import pathlib
import resource
import sys
import time

from ptdiff import (ClassifierConfig, JetConfig, QuadratureConfig, classify,
                    load_corpus)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def build_config(args):
    return ClassifierConfig(
        levels=args.levels, dict_size=args.dict_size, seed=args.seed,
        quad=QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15,
                              max_cells=2 ** 11),
        jet_config=JetConfig(levels=8))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--items", nargs="*", default=None,
                    help="corpus item ids (default: all annotated items)")
    ap.add_argument("--levels", type=int, default=10)
    ap.add_argument("--dict-size", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="directory for per-claim decay CSV files")
    args = ap.parse_args(argv)

    corpus = load_corpus()
    config = build_config(args)
    items = args.items or [iid for iid, item in sorted(corpus.items())
                           if item.classification_claims]
    mismatches, claims, total_cpu, total_faults = 0, 0, 0.0, 0
    for iid in items:
        item = corpus[iid]
        T = item.build()
        for c in item.classification_claims:
            t0, f0 = time.process_time(), _minor_faults()
            rep = classify(T, list(c.point), c.k, alpha=c.alpha, config=config)
            cpu, faults = time.process_time() - t0, _minor_faults() - f0
            claims, total_cpu, total_faults = claims + 1, total_cpu + cpu, total_faults + faults
            ok = rep.verdict == c.verdict
            mismatches += 0 if ok else 1
            beta = "-" if rep.beta_hat is None else f"{rep.beta_hat:+.3f}"
            print(f"{iid:10s} a={c.point} k={c.k:+d} alpha={c.alpha} "
                  f"want={c.verdict:9s} got={rep.verdict:9s} beta={beta} "
                  f"[{'ok' if ok else 'MISMATCH'}] {cpu:.2f} s CPU, {faults} faults")
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                name = f"{iid}_k{c.k}" + ("" if c.alpha is None
                                          else f"_a{c.alpha}")
                with open(args.out / f"{name}.csv", "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["r", "E_envelope"]
                               + [f"probe_{m}" for m in
                                  range(len(rep.probe_labels))])
                    for r, env, _, probes in rep.rows():
                        w.writerow([r, env] + list(probes))
    print(f"{mismatches} mismatches; {claims} claims in {total_cpu:.2f} s CPU, "
          f"{total_faults} faults")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
