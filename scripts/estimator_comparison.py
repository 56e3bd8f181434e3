"""Bias and spread of the ATE estimators on the known-truth logistic design.

Runs R replications per estimator and prints mean, sd, bias, and RMSE.  The
matching and weight-form columns are algebraically identical; the contrast of
interest is raw matching vs the bias-corrected and DR forms as M grows.

Run:

    python scripts/estimator_comparison.py --n 2000 --reps 50
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from rieszmatch import (
    Metric,
    ate_bias_corrected,
    ate_dr_riesz,
    ate_matching,
    ate_regression,
    ate_weight_form,
    fit_outcome,
    generate,
    logistic_dgp,
    matching_structures,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--degree", type=int, default=1, choices=range(4))
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args()

    spec = logistic_dgp()
    metric = Metric()
    m = args.m if args.m is not None else math.ceil(2 * args.n ** (1 / 3))

    columns = {
        "matching": [],
        "weight_form": [],
        "regression": [],
        "bias_corrected": [],
        "dr_riesz": [],
    }
    for rep in range(args.reps):
        data = generate(spec, args.n, seed=args.seed0 + rep)
        outcome = fit_outcome(data, args.degree)
        structures = matching_structures(data, metric, m)
        columns["matching"].append(ate_matching(data, structures).tau)
        columns["weight_form"].append(ate_weight_form(data, structures).tau)
        columns["regression"].append(ate_regression(data, outcome).tau)
        columns["bias_corrected"].append(ate_bias_corrected(data, structures, outcome).tau)
        columns["dr_riesz"].append(ate_dr_riesz(data, structures, outcome).tau)

    print(f"n={args.n} M={m} degree={args.degree} reps={args.reps} true_ate={spec.true_ate}")
    print(f"{'estimator':>16} {'mean':>9} {'sd':>9} {'bias':>9} {'rmse':>9}")
    for name, values in columns.items():
        taus = np.array(values)
        bias = taus.mean() - spec.true_ate
        rmse = math.sqrt(np.mean((taus - spec.true_ate) ** 2))
        print(f"{name:>16} {taus.mean():>9.4f} {taus.std(ddof=1):>9.4f} {bias:>9.4f} {rmse:>9.4f}")


if __name__ == "__main__":
    main()
