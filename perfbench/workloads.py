"""The four benchmark workloads: their inputs, command lines and output checks.

Inputs are drawn here from the benchmark seed with numpy and written with the
standard ``csv`` module, never through ``rieszmatch``'s own generators or
writers, so a change to the program's data layer cannot change what is
measured.  Every check reads only the report fields it names, so fields that
later versions add to a report are not failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Cross-route identities the paper states exactly; the program meets them at
# this tolerance.
IDENTITY_TOL = 1e-12


def ate_tau_bound(n: int) -> float:
    """Six Monte-Carlo sds of the dr estimate on the logistic design at n rows.

    The sd is 0.0553 at n=2000 (`rieszmatch simulate --n 2000 --reps 200
    --seed 7`) and scales as 1/sqrt(n): 0.0078 at n=100000, so the bound
    there is 0.047.
    """
    return 6.0 * 0.0553 * math.sqrt(2000.0 / n)


REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")
REFERENCE_WORKLOADS = ("ate-100k", "simulate-2k", "verify")

SIM_COLUMNS = (
    "tau_matching",
    "tau_weight_form",
    "tau_regression",
    "tau_bias_corrected",
    "tau_dr_riesz",
)
VERIFY_GAPS = (
    "theorem1_gap",
    "eq1_gap",
    "weight_identity_gap",
    "separability_gap",
    "dr_gap",
    "score_mean",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes that define the workloads; the self-test shrinks them."""

    ate_n: int = 100_000
    sim_n: int = 2000
    sim_reps: int = 40
    verify_instances: int = 50
    dre_n: int = 2000
    dre_points: int = 10


FULL = Sizes()


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # the --jobs the untraced run passes; traced runs pass 1


# Why each workload was chosen is stated in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ate-100k", jobs=1),
        Workload("simulate-2k", jobs=2),
        Workload("verify", jobs=1),
        Workload("dre-indicator-2k", jobs=1),
    )
}


@dataclass
class Inputs:
    """What one run feeds the program, and what its checks need."""

    args: list[str]  # subcommand and flags of the first call, without --jobs
    digests: dict[str, str]
    expected: dict  # check data computed here, outside any timed region
    reseed: bool = False  # later calls pass a --seed derived from the first

    def argv(self, call: int) -> list[str]:
        """Arguments of the call-th command of a run, counting from 0."""
        if not self.reseed or call == 0:
            return self.args
        at = self.args.index("--seed") + 1
        seed = np.random.SeedSequence([int(self.args[at]), call]).generate_state(1, np.uint64)[0]
        return self.args[:at] + [str(seed)] + self.args[at + 1:]


def _rng(seed: int, workload: str) -> np.random.Generator:
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, salt])


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray], kinds: str) -> str:
    """Write columns as CSV ('f' shortest round-trip float, 'i' integer); return sha256."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        cells = [
            [repr(float(v)) for v in col] if kind == "f" else [str(int(v)) for v in col]
            for col, kind in zip(columns, kinds)
        ]
        writer.writerows(zip(*cells))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_args(args: list[str]) -> str:
    return hashlib.sha256(json.dumps(args).encode()).hexdigest()


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        out += diff * diff
    return out


def one_step_ratio(den: np.ndarray, num: np.ndarray, points: np.ndarray, m: int) -> np.ndarray:
    """(N0/N1) K_M(c) / M at each point by brute force.

    K_M(c) counts the numerator points whose M-th nearest-denominator radius
    covers c, boundary inclusive.  Squared distances are summed coordinate by
    coordinate, so the boundary decisions are made in the same arithmetic as
    the program's.
    """
    radii_sq = np.partition(_sq_dists(num, den), m - 1, axis=1)[:, m - 1]
    counts = (_sq_dists(points, num) <= radii_sq[None, :]).sum(axis=1)
    return len(den) / len(num) * counts / m


def make_inputs(name: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Inputs:
    rng = _rng(seed, name)
    if name == "ate-100k":
        # The logistic design: X ~ U[-1,1]^2, e(x) = 0.1 + 0.8 sigmoid(2 x1),
        # mu1 = 1 + x1 + x2, mu0 = x1, unit normal noise, true ATE 1.
        n = sizes.ate_n
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        e = 0.1 + 0.8 / (1.0 + np.exp(-2.0 * x[:, 0]))
        d = (rng.random(n) < e).astype(np.int64)
        y = np.where(d == 1, 1.0 + x[:, 0] + x[:, 1], x[:, 0]) + rng.standard_normal(n)
        path = workdir / "ate.csv"
        digest = _write_csv(path, ["x0", "x1", "d", "y"], [x[:, 0], x[:, 1], d, y], "ffif")
        args = ["ate", "--input", str(path), "--estimator", "dr", "--degree", "1"]
        return Inputs(args, {path.name: digest}, {"tau_bound": ate_tau_bound(n)})
    if name == "simulate-2k":
        args = [
            "simulate", "--dgp", "logistic", "--n", str(sizes.sim_n), "--degree", "1",
            "--reps", str(sizes.sim_reps), "--seed", str(seed),
        ]
        return Inputs(args, {"argv": _digest_args(args)}, {"reps": sizes.sim_reps})
    if name == "verify":
        # Instance sizes are drawn from the seed and the run time grows about
        # as the sum of their squares, which varies by about 10% between
        # seeds at 50 instances; each call draws fresh instances, so a run's
        # median covers several draws.
        args = ["verify", "--instances", str(sizes.verify_instances), "--seed", str(seed)]
        return Inputs(
            args, {"argv": _digest_args(args)}, {"instances": sizes.verify_instances}, reseed=True
        )
    if name == "dre-indicator-2k":
        m = 5
        den = rng.standard_normal((sizes.dre_n, 2))
        num = 0.3 + rng.standard_normal((sizes.dre_n, 2))
        points = 0.3 + rng.standard_normal((sizes.dre_points, 2))
        digests = {}
        paths = {}
        for label, arr in (("den", den), ("num", num), ("points", points)):
            paths[label] = workdir / f"{label}.csv"
            digests[paths[label].name] = _write_csv(
                paths[label], ["x0", "x1"], [arr[:, 0], arr[:, 1]], "ff"
            )
        args = [
            "dre", "--basis", "indicator", "--m", str(m),
            "--denominator", str(paths["den"]), "--numerator", str(paths["num"]),
            "--eval-points", str(paths["points"]),
        ]
        return Inputs(args, digests, {"r_hat": one_step_ratio(den, num, points, m).tolist()})
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def parse_report(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a key=value report into its header and its records, values as strings."""
    header: dict[str, str] = {}
    records: list[dict[str, str]] = []
    lines = iter(text.splitlines())
    for line in lines:
        if line == "==records==":
            break
        key, _, value = line.partition("=")
        header[key] = value
    for line in lines:
        if line:
            records.append(dict(field.partition("=")[::2] for field in line.split(" ")))
    return header, records


def _number(fields: dict[str, str], key: str) -> float:
    value = float(fields[key])
    if not math.isfinite(value):
        raise ValueError(f"{key}={fields[key]} is not finite")
    return value


def check_report(name: str, text: str, inputs: Inputs, reference: dict | None) -> list[str]:
    """Problems found in one report; an empty list means the output is correct.

    ``reference`` holds values recorded at the reference seed; when given,
    the named fields must match them character for character, which for
    repr-formatted floats means bit for bit.
    """
    try:
        header, records = parse_report(text)
        return _check(name, header, records, inputs, reference)
    except (IndexError, KeyError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"]


def _check(name, header, records, inputs, reference) -> list[str]:
    problems = []
    if name == "ate-100k":
        tau, bound = _number(header, "tau"), inputs.expected["tau_bound"]
        if abs(tau - 1.0) > bound:
            problems.append(f"|tau - 1| = {abs(tau - 1.0):.4g} exceeds {bound:.4g}")
    elif name == "simulate-2k":
        if len(records) != inputs.expected["reps"]:
            problems.append(f"{len(records)} records for {inputs.expected['reps']} replications")
        for rec in records:
            tau = {col: _number(rec, col) for col in SIM_COLUMNS}
            if abs(tau["tau_matching"] - tau["tau_weight_form"]) > IDENTITY_TOL:
                problems.append(f"rep {rec['rep']}: tau_matching != tau_weight_form")
            if abs(tau["tau_bias_corrected"] - tau["tau_dr_riesz"]) > IDENTITY_TOL:
                problems.append(f"rep {rec['rep']}: tau_bias_corrected != tau_dr_riesz")
    elif name == "verify":
        if header["status"] != "pass":
            problems.append(f"status={header['status']}")
        if len(records) != inputs.expected["instances"]:
            problems.append(f"{len(records)} records for {inputs.expected['instances']} instances")
    elif name == "dre-indicator-2k":
        expected = inputs.expected["r_hat"]
        if len(records) != len(expected):
            problems.append(f"{len(records)} records for {len(expected)} evaluation points")
        for rec, want in zip(records, expected):
            got = _number(rec, "r_hat")
            if abs(got - want) > IDENTITY_TOL:
                problems.append(f"point {rec['point']}: r_hat {got!r} != one-step {want!r}")
    if reference is not None and reference_fields(name, header, records) != reference:
        problems.append("fields recorded at the reference seed differ from the reference")
    return problems


def reference_fields(name: str, header: dict, records: list[dict]) -> dict:
    """The report fields that must stay bit-identical at the reference seed."""
    if name == "ate-100k":
        return {"tau": header["tau"], "max_weight": records[0]["max_weight"]}
    if name == "simulate-2k":
        return {"records": [{col: rec[col] for col in SIM_COLUMNS} for rec in records]}
    if name == "verify":
        keys = [f"max.{gap}" for gap in VERIFY_GAPS] + ["status"]
        return {
            "header": {key: header[key] for key in keys},
            "records": [{gap: rec[gap] for gap in VERIFY_GAPS} for rec in records],
        }
    return {}


def load_reference(name: str, seed: int, sizes: Sizes) -> dict | None:
    """Recorded values for this workload, when the run is at the reference seed and sizes."""
    if seed != REFERENCE_SEED or sizes != FULL or name not in REFERENCE_WORKLOADS:
        return None
    return json.loads(REFERENCE_PATH.read_text())[name]
