#!/usr/bin/env python3
"""FER/BER sweep for the bundled example codes.

Builds the 4-ary (12, 6) rate-1/2 Class-II code, runs the layered Min-Max
decoder over a range of Eb/N0 points and prints the CSV result table.
"""

import argparse

from nbqc import (
    CodeSpec,
    DecoderConfig,
    build_code,
    build_layer_schedule,
    run_monte_carlo,
)
from nbqc.decode import SimResultRow


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--max-iter", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--snrs", default="1,2,3,4")
    args = ap.parse_args()

    spec = CodeSpec.class2(m=2, t=1, gamma=2, rho=4)
    h, _, _, fld = build_code(spec)
    schedule = build_layer_schedule(h)
    config = DecoderConfig(max_iter=args.max_iter, rng_seed=args.seed)
    snrs = [float(s) for s in args.snrs.split(",")]
    rows = run_monte_carlo(h, schedule, fld, snrs, args.trials, config)
    print(SimResultRow.CSV_HEADER)
    for row in rows:
        print(row.csv())


if __name__ == "__main__":
    main()
