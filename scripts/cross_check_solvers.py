#!/usr/bin/env python3
"""Stress the agreement between the three solution routes on random sources.

For each seeded instance this compares the merging rule against the
water-level solve (should agree to machine precision), against the
structure-blind numerical optimizer (pay-off within 1e-4), and against the
large-t slice of the exponential family, also as gap times t.  Prints the
worst-case gaps as one JSON line, so runs can be compared by machine.

Usage: python scripts/cross_check_solvers.py [instances] [seed]
"""

import json
import sys
import time

import numpy as np

from mergecode import (
    build_schedule,
    canonicalize,
    optimal_code,
    payoff,
    solve_two_parameter,
    waterfill_weights,
    weights_at,
)
from mergecode.oracle import brute_force_optimal

T_LARGE = 200.0


def main(instances=60, seed=12345):
    rng = np.random.default_rng(seed)
    start = time.time()
    worst_water = worst_bf = worst_t = 0.0
    for i in range(instances):
        n = int(rng.integers(2, 13))
        p = canonicalize(rng.dirichlet(np.ones(n)), 2)
        s = build_schedule(p)
        alpha = float(rng.uniform(0, max(s.alpha_max, 1e-12)))

        wm = weights_at(s, p, alpha).weights
        ww = waterfill_weights(p, alpha).weights
        worst_water = max(worst_water, float(np.max(np.abs(wm - ww))))

        if n <= 8:
            _, _, report = optimal_code(p, alpha, s)
            bf = payoff(brute_force_optimal(p, alpha), p, alpha).payoff
            worst_bf = max(worst_bf, abs(report.payoff - bf))

            sol = solve_two_parameter(p, T_LARGE, alpha)
            gap = float(np.max(np.abs(sol.lengths.real_lengths + np.log2(wm))))
            worst_t = max(worst_t, gap)

    print(json.dumps({
        "instances": instances,
        "seed": seed,
        "seconds": round(time.time() - start, 3),
        "merge_vs_water": worst_water,
        "merge_vs_optimizer": worst_bf,
        "merge_vs_t200": worst_t,
        # the gap shrinks like (1 + ln t)/t, so this stays O(ln t)
        "t_times_merge_vs_t200": T_LARGE * worst_t,
    }))


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
