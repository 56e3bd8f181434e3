"""Command-line front end: ate, dre, weights, simulate, verify.

Reports are deterministic given the flags and seed: the body carries no
timings and no scheduling knobs, so reruns (with any ``--jobs``) byte-match.
Wall-clock timings go to stderr.  Exit codes: 0 success, 1 verification
failure, 2 input error (bad data, or a path that cannot be read or written).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import equivalence as eq
from . import lsif, matching
from .neighbors import matching_structures
from .report import render_report

# --estimator name -> the report's variant name
_VARIANTS = dict(matching="matching", weight="weight_form", bc="bias_corrected", dr="dr_riesz")
# simulate's estimates, in record and summary order
_SIM_VARIANTS = ("matching", "weight_form", "regression", "bias_corrected", "dr_riesz")


def default_match_count(n: int) -> int:
    """Default M(n) = ceil(2 n^(1/3)); exposed as a flag everywhere."""
    return int(math.ceil(2.0 * n ** (1.0 / 3.0)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rieszmatch")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ate = sub.add_parser("ate", help="estimate the ATE from a CSV dataset")
    p_ate.add_argument("--input", required=True)
    p_ate.add_argument("--m", type=int, default=None, help="match count (default 2 n^{1/3})")
    p_ate.add_argument("--estimator", choices=tuple(_VARIANTS), default="matching")
    p_ate.add_argument("--degree", type=int, default=1, choices=range(4))

    p_dre = sub.add_parser("dre", help="density-ratio estimates at evaluation points")
    p_dre.add_argument("--denominator", required=True, help="denominator sample CSV")
    p_dre.add_argument("--numerator", required=True, help="numerator sample CSV")
    p_dre.add_argument("--eval-points", required=True, help="evaluation points CSV")
    p_dre.add_argument("--m", type=int, default=1)
    p_dre.add_argument("--lambda", dest="lam", type=float, default=None)
    p_dre.add_argument("--basis", choices=["indicator", "poly", "gauss"], default="indicator")
    p_dre.add_argument("--degree", type=int, default=2, choices=range(4))
    p_dre.add_argument("--grid", type=int, default=4, help="per-dimension Gaussian grid size")

    p_w = sub.add_parser("weights", help="per-unit matching weights")
    source = p_w.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="dataset CSV (oracle column is na)")
    dgp_help = "the built-in logistic design (enables the oracle column)"
    source.add_argument("--dgp", choices=["logistic"], help=dgp_help)
    # absent unless given, so that --input can refuse them
    p_w.add_argument("--n", type=int, default=argparse.SUPPRESS, help="--dgp size (default 500)")
    p_w.add_argument("--m", type=int, default=None)
    seed_help = "seed of the --dgp draw (64-bit unsigned, default 0)"
    p_w.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=seed_help)

    p_sim = sub.add_parser("simulate", help="known-truth replication study")
    p_sim.add_argument("--dgp", choices=["logistic"], default="logistic")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--m", type=int, default=None)
    p_sim.add_argument("--degree", type=int, default=1, choices=range(4))
    p_sim.add_argument("--seed", type=int, default=0, help="root seed (64-bit unsigned)")

    p_ver = sub.add_parser("verify", help="run the equivalence suites on random instances")
    p_ver.add_argument("--instances", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0, help="root seed (64-bit unsigned)")

    jobs_help = "worker pool size of simulate and verify; ate, dre and weights ignore it"
    handlers = (cmd_ate, cmd_dre, cmd_weights, cmd_simulate, cmd_verify)
    for p, handler in zip((p_ate, p_dre, p_w, p_sim, p_ver), handlers):
        p.add_argument("--jobs", type=int, default=1, help=jobs_help)
        p.add_argument("--output", type=str, default=None, help="write the report here")
        p.set_defaults(run=handler)
    return parser


def _pool_map(worker, jobs: int, tasks: list) -> list:
    """``worker`` over ``tasks`` in order.  A pool starts when ``jobs``, the task
    count and the CPU count all exceed 1, with the least of the three as workers:
    the fork start method starts every worker at once."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(worker, tasks))
    # the attribute loads the process pool, and multiprocessing, on first access
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def _estimate(variant: str, data, structures, outcome) -> float:
    """tau of one report variant. Each estimator is looked up on ``matching`` at
    the call, so a rebinding of ``matching.ate_*`` after import sees every call."""
    if variant == "matching":
        return matching.ate_matching(data, structures)
    if variant == "weight_form":
        return matching.ate_weight_form(data, structures)
    if variant == "regression":
        return matching.ate_regression(data, outcome)
    if variant == "bias_corrected":
        return matching.ate_bias_corrected(data, structures, outcome)
    return matching.ate_dr_riesz(data, structures, outcome)


def cmd_ate(args) -> tuple[list, list, int]:
    data = ds.load_csv(args.input)
    m = args.m if args.m is not None else default_match_count(data.n)
    structures = matching_structures(data, m)
    # fitted after the match, so its stored means stay out of the match's peak
    outcome = matching.fit_outcome(data, args.degree) if args.estimator in ("bc", "dr") else None
    variant = _VARIANTS[args.estimator]
    tau = _estimate(variant, data, structures, outcome)
    if not math.isfinite(tau):
        raise ValueError(f"the {args.estimator} estimate overflowed: tau={tau}")
    header = [
        ("input", args.input),
        ("estimator", args.estimator),
        ("m", m),
        ("degree", args.degree),
        ("metric", "euclidean"),
        ("n", data.n),
        ("n_treated", data.n_treated),
        ("n_control", data.n_control),
        ("tau", tau),
    ]
    max_weight = float(structures.weights.max())
    record = [("tau", tau), ("variant", variant), ("m", m), ("max_weight", max_weight)]
    return header, [record], 0


def cmd_dre(args) -> tuple[list, list, int]:
    den = ds.load_points_csv(args.denominator)
    num = ds.load_points_csv(args.numerator)
    points = ds.load_points_csv(args.eval_points)
    data = ds.TwoSampleData(denominator=den, numerator=num)
    if points.shape[1] != data.d:
        raise ValueError("evaluation points have the wrong dimension")
    if args.basis == "indicator":
        lam = 0.0 if args.lam is None else args.lam
        values = lsif.indicator_dre(data, args.m, points, lam)
    else:
        if args.basis == "poly":
            basis = functools.partial(lsif.polynomial_feature_matrix, degree=args.degree)
        else:
            basis = lsif.gaussian_grid_basis(data.denominator, per_dim=args.grid)
        lam, beta = lsif.fit(basis(data.denominator), basis(data.numerator), args.lam)
        phi = lsif.check_features(basis(points), len(points), len(beta))
        # one dot per row, not phi @ beta: a matrix-vector product may sum in
        # another order and change the last bit of r_hat
        values = [float(np.dot(beta, row)) for row in phi]
    param = {"indicator": "m", "poly": "degree", "gauss": "grid"}[args.basis]  # what the fit used
    header = [
        ("denominator", args.denominator),
        ("numerator", args.numerator),
        ("eval_points", args.eval_points),
        ("basis", args.basis),
        (param, getattr(args, param)),
        ("lambda", float(lam)),
        ("metric", "euclidean"),
        ("n_denominator", data.n_denominator),
        ("n_numerator", data.n_numerator),
    ]
    records = []
    for t, (point, value) in enumerate(zip(points, values)):
        rec = [("point", t)]
        rec += [(f"x{k}", float(point[k])) for k in range(len(point))]
        rec.append(("r_hat", value))
        records.append(rec)
    return header, records, 0


def cmd_weights(args) -> tuple[list, list, int]:
    oracle = None
    if args.input is not None:
        if "n" in args or "seed" in args:
            raise ValueError("--n and --seed set the --dgp draw; --input takes neither")
        data = ds.load_csv(args.input)
        source = [("input", args.input)]
    else:
        n, seed = getattr(args, "n", 500), getattr(args, "seed", 0)
        data = ds.generate(n, seed)
        e = ds.logistic_propensity(data.covariates)
        oracle = np.where(data.treatment == 1, 1.0 / e, 1.0 / (1.0 - e))
        source = [("dgp", args.dgp), ("n", n), ("seed", seed)]
    m = args.m if args.m is not None else default_match_count(data.n)
    structures = matching_structures(data, m)
    weights = structures.weights
    header = source + [("m", m), ("metric", "euclidean")]
    header += [("n", data.n)] if oracle is None else []  # a --dgp source names its n
    header.append(("max_weight", float(weights.max())))
    records = []
    for i in range(data.n):
        rec = [
            ("i", i),
            ("d", int(data.treatment[i])),
            ("k", int(structures.matched_times[i])),
            ("w", float(weights[i])),
            ("oracle", "na" if oracle is None else float(oracle[i])),
        ]
        records.append(rec)
    return header, records, 0


def _simulate_replication(n: int, m: int, degree: int, seed: int) -> list[float]:
    """The ``_SIM_VARIANTS`` estimates on one draw of the logistic design."""
    data = ds.generate(n, seed)
    outcome = matching.fit_outcome(data, degree)
    structures = matching_structures(data, m)
    return [_estimate(variant, data, structures, outcome) for variant in _SIM_VARIANTS]


def cmd_simulate(args) -> tuple[list, list, int]:
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    m = args.m if args.m is not None else default_match_count(args.n)
    seeds = eq.instance_seeds(args.seed, args.reps)
    replicate = functools.partial(_simulate_replication, args.n, m, args.degree)
    rows = _pool_map(replicate, args.jobs, seeds)
    header = [
        ("dgp", args.dgp),
        ("n", args.n),
        ("reps", args.reps),
        ("seed", args.seed),
        ("m", m),
        ("degree", args.degree),
        ("metric", "euclidean"),
        ("true_ate", ds.LOGISTIC_TRUE_ATE),
    ]
    for j, name in enumerate(_SIM_VARIANTS):
        taus = np.array([row[j] for row in rows])
        header.append((f"summary.{name}.mean", float(taus.mean())))
        sd = float(taus.std(ddof=1)) if len(taus) > 1 else 0.0
        header.append((f"summary.{name}.sd", sd))
        header.append((f"summary.{name}.bias", float(taus.mean() - ds.LOGISTIC_TRUE_ATE)))
        rmse = float(np.sqrt(np.mean((taus - ds.LOGISTIC_TRUE_ATE) ** 2)))
        header.append((f"summary.{name}.rmse", rmse))
    records = [
        [("rep", rep), ("seed", seeds[rep])] + [(f"tau_{v}", t) for v, t in zip(_SIM_VARIANTS, row)]
        for rep, row in enumerate(rows)
    ]
    return header, records, 0


def cmd_verify(args) -> tuple[list, list, int]:
    if args.instances < 1:
        raise ValueError("--instances must be >= 1")
    seeds = eq.instance_seeds(args.seed, args.instances)
    results = _pool_map(eq.run_instance, args.jobs, seeds)
    passed = all(eq.max_judged_gap(gaps) <= eq.GAP_THRESHOLD for gaps in results)
    header = [
        ("seed", args.seed),
        ("instances", args.instances),
        ("metric", "euclidean"),
        ("threshold", eq.GAP_THRESHOLD),
    ]
    for name in results[0]:  # np.max, unlike max, keeps a NaN gap of any instance
        header.append((f"max.{name}", float(np.max([gaps[name] for gaps in results]))))
    header.append(("status", "pass" if passed else "fail"))
    records = [
        [("instance", i), ("seed", seed)] + list(gaps.items())
        for i, (seed, gaps) in enumerate(zip(seeds, results))
    ]
    return header, records, 0 if passed else 1


# An --input or --output that cannot be opened.  Other OS errors (a closed
# stdout pipe, a worker pool that cannot start) are not input errors.
_PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        if "seed" in args and not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must be in [0, 2^64), got {args.seed}")
        header, records, status = args.run(args)
        body = render_report([("command", args.command), *header], records)
        if args.output is None:
            sys.stdout.write(body)
        else:
            Path(args.output).write_text(body)
    except (*_PATH_ERRORS, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"timing command={args.command} total={elapsed:.3f}s", file=sys.stderr)
    return status


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
