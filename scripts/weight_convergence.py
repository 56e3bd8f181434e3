"""How well do matched-times weights track the true inverse propensities?

Sweeps (n, M) configurations on the built-in logistic design and reports the
median absolute error of 1 + K_M(i)/M against 1/e(X_i) on the treated arm.

Run:

    python scripts/weight_convergence.py --seeds 10
"""

from __future__ import annotations

import argparse

import numpy as np

from rieszmatch import generate, logistic_propensity, matching_structures


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args()

    configs = [(250, 12), (500, 16), (1000, 20), (2000, 25), (4000, 32), (8000, 40)]

    print(f"{'n':>6} {'M':>4} {'median |w - 1/e|':>18} {'sd over seeds':>14}")
    for n, m in configs:
        errors = []
        for s in range(args.seeds):
            data = generate(n, seed=args.seed0 + s)
            weights = matching_structures(data, m).weights
            e = logistic_propensity(data.covariates)
            treated = data.treatment == 1
            errors.append(np.median(np.abs(weights[treated] - 1.0 / e[treated])))
        errors = np.array(errors)
        sd = errors.std(ddof=1) if len(errors) > 1 else 0.0
        print(f"{n:>6} {m:>4} {errors.mean():>18.4f} {sd:>14.4f}")


if __name__ == "__main__":
    main()
