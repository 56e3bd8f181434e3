import builtins
import csv
import hashlib
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import query_indices
from rieszmatch import (
    LOGISTIC_TRUE_ATE,
    ObservationalDataset,
    TwoSampleData,
    cli,
    generate,
    load_csv,
    load_points_csv,
    logistic_means,
    logistic_propensity,
    save_csv,
    save_points_csv,
)
from rieszmatch import dataset
from rieszmatch.lsif import gaussian_grid_basis, indicator_dre, polynomial_feature_matrix
from rieszmatch.neighbors import _tree


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_four_row_file(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n0.0,1,1.0\n2.0,1,3.0\n0.1,0,0.0\n1.9,0,2.0\n")
        data = load_csv(path)
        assert data.n == 4
        assert data.n_treated == 2
        assert data.n_control == 2
        np.testing.assert_array_equal(data.treatment, [1, 1, 0, 0])

    def test_non_binary_treatment_reports_row(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n0.0,1,1.0\n2.0,2,3.0\n0.1,0,0.0\n")
        with pytest.raises(ValueError, match="non-binary treatment at row 3"):
            load_csv(path)

    def test_header_only_is_empty_arm(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n")
        with pytest.raises(ValueError, match="empty treatment arm"):
            load_csv(path)

    def test_single_arm_is_empty_arm(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n0.0,1,1.0\n1.0,1,2.0\n")
        with pytest.raises(ValueError, match="empty treatment arm"):
            load_csv(path)

    def test_malformed_row_reports_row(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n0.0,1,1.0\n2.0,0\n")
        with pytest.raises(ValueError, match="malformed row at row 3"):
            load_csv(path)

    def test_unparseable_number_reports_row(self, tmp_path):
        path = write(tmp_path, "x0,d,y\nabc,1,1.0\n1.0,0,2.0\n")
        with pytest.raises(ValueError, match="malformed row at row 2"):
            load_csv(path)

    def test_non_finite_reports_row(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n0.0,1,inf\n1.0,0,2.0\n")
        with pytest.raises(ValueError, match="non-finite value at row 2"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "a,b,c\n0.0,1,1.0\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_csv(path)

    def test_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        data = ObservationalDataset(
            covariates=rng.normal(size=(37, 3)) * np.array([1e-7, 1.0, 1e6]),
            treatment=(rng.random(37) < 0.4).astype(int),
            outcome=rng.standard_cauchy(37),
        )
        path = tmp_path / "roundtrip.csv"
        save_csv(data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.covariates, data.covariates)
        np.testing.assert_array_equal(back.treatment, data.treatment)
        np.testing.assert_array_equal(back.outcome, data.outcome)

    def test_blank_line_reports_row(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n0.0,1,1.0\n\n1.0,0,2.0\n")
        with pytest.raises(ValueError, match="^malformed row at row 3: expected 3 fields, got 0$"):
            load_csv(path)
        points = write(tmp_path, "x0\n0.5\n\n1.5\n", name="points.csv")
        with pytest.raises(ValueError, match="^malformed row at row 3: expected 1 fields, got 0$"):
            load_points_csv(points)

    def test_hash_inside_a_field_is_not_a_comment(self, tmp_path):
        path = write(tmp_path, "x0,d,y\n0.0,1,1.0#note\n1.0,0,2.0\n")
        with pytest.raises(ValueError, match="^malformed row at row 2: unparseable number$"):
            load_csv(path)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"x0,d,y\r\n0.25,1,1.5\r\n-0.75,0,2.0\r\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.covariates, [[0.25], [-0.75]])
        np.testing.assert_array_equal(data.treatment, [1, 0])
        np.testing.assert_array_equal(data.outcome, [1.5, 2.0])

    def test_quoted_number(self, tmp_path):
        path = write(tmp_path, 'x0,d,y\n"0.25",1,1.5\n-0.75,"0","2e-3"\n')
        data = load_csv(path)
        np.testing.assert_array_equal(data.covariates, [[0.25], [-0.75]])
        np.testing.assert_array_equal(data.treatment, [1, 0])
        np.testing.assert_array_equal(data.outcome, [1.5, 2e-3])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1.0,0,nan\n2.0,5,1.0\n", "non-finite value at row 3"),
            ("2.0,5,1.0\n1.0,0,nan\n", "non-binary treatment at row 3"),
            ("2.0,5,inf\n1.0,0,1.0\n", "non-finite value at row 3"),  # one row, both faults
        ],
    )
    def test_first_bad_row_wins(self, tmp_path, rows, message):
        path = write(tmp_path, "x0,d,y\n0.0,1,1.0\n" + rows)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_csv(path)

    def test_round_trip_is_bit_identical_at_10000_rows(self, tmp_path):
        rng = np.random.default_rng(17)
        n = 10_000
        bits = rng.integers(0, 2**64, size=(2 * n, 3), dtype=np.uint64).view(np.float64)
        x = bits[np.isfinite(bits).all(axis=1)][:n]  # every finite double, subnormals included
        x[:4, 0] = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).tiny]
        data = ObservationalDataset(
            covariates=x, treatment=np.arange(n) % 2, outcome=rng.standard_cauchy(n)
        )
        path = tmp_path / "roundtrip.csv"
        save_csv(data, path)
        back = load_csv(path)
        assert back.covariates.tobytes() == data.covariates.tobytes()
        assert back.treatment.tobytes() == data.treatment.tobytes()
        assert back.outcome.tobytes() == data.outcome.tobytes()


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


@pytest.fixture(scope="module")
def big_rows():
    """100 000 rows of four columns, valid under both x0,x1,d,y and x0,...,x3."""
    rng = np.random.default_rng(3)
    n = 100_000
    x = rng.uniform(-1.0, 1.0, size=(n, 2)).tolist()
    y = rng.standard_normal(n).tolist()
    return [[x0, x1, i % 2, yi] for i, ((x0, x1), yi) in enumerate(zip(x, y))]


def as_matrix(loaded):
    if isinstance(loaded, ObservationalDataset):
        return np.column_stack([loaded.covariates, loaded.treatment, loaded.outcome])
    return loaded


LOADERS = [
    pytest.param(load_csv, b"x0,d,y", id="load_csv"),
    pytest.param(load_points_csv, b"x0,x1,x2", id="load_points_csv"),
]


class TestStreamedReader:
    @pytest.mark.parametrize("loader, header", LOADERS)
    @pytest.mark.parametrize(
        "body",
        [b"\r0.25,1,1.5\r-0.75,0,2.0\r", b"\n0.25,1,1.5\n-0.75,0,2.0"],
        ids=["cr-only", "no-final-line-end"],
    )
    def test_line_endings(self, tmp_path, loader, header, body):
        path = tmp_path / "data.csv"
        path.write_bytes(header + body)
        np.testing.assert_array_equal(as_matrix(loader(path)), [[0.25, 1, 1.5], [-0.75, 0, 2.0]])

    def test_crlf_at_every_offset_of_the_binary_line_count(self, tmp_path):
        # the file is read in fixed-size chunks; one of these 11 paddings puts
        # a CR last in any chunk shorter than the file
        path = tmp_path / "crlf.csv"
        for pad in range(11):
            first = b"0." + b"5" * (pad + 1) + b",0,1.5\r\n"
            path.write_bytes(b"x0,d,y\r\n" + first + b"0.5,1,1.5\r\n" * 10_000)
            assert load_csv(path).n == 10_001

    @pytest.mark.parametrize("loader, header", LOADERS)
    def test_good_file_is_opened_once(self, tmp_path, monkeypatch, loader, header):
        # the row count comes from the stream loadtxt parses, not a second pass
        path = tmp_path / "data.csv"
        path.write_bytes(header + b"\r\n0.25,1,1.5\r-0.75,0,2.0")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(dataset, "open", counting_open, raising=False)
        np.testing.assert_array_equal(as_matrix(loader(path)), [[0.25, 1, 1.5], [-0.75, 0, 2.0]])
        assert opened == [path]

    @pytest.mark.parametrize("loader, header", LOADERS)
    def test_blank_only_body_raises_without_warning(self, tmp_path, loader, header):
        path = tmp_path / "data.csv"
        path.write_bytes(header + b"\n\n\r\n\r")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^malformed row at row 2: expected 3 fields, got 0$"):
                loader(path)

    @pytest.mark.parametrize("loader", [load_csv, load_points_csv])
    def test_byte_order_mark_is_skipped_bit_for_bit(self, tmp_path, loader):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        if loader is load_csv:
            save_csv(generate(200, seed=8), plain)
        else:
            save_points_csv(np.random.default_rng(8).standard_normal((200, 3)), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected, got = as_matrix(loader(plain)), as_matrix(loader(marked))
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "loader, body, message",
        [
            (load_csv, b"x0,d,y\n0.0,1,1.0\n2.0,1,3.0\n0.1,2,0.0\n", "non-binary treatment at row 4"),
            (
                load_points_csv,
                b"x0,x1\n0.5,1.5\n0.\xff2,2.0\n",
                "malformed row at row 3: unparseable number",
            ),
        ],
        ids=["load_csv", "load_points_csv"],
    )
    def test_bad_row_after_byte_order_mark_is_named_by_line(self, tmp_path, loader, body, message):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + body)
        with pytest.raises(ValueError, match=f"^{message}$"):
            loader(path)

    @pytest.mark.parametrize("loader, header", LOADERS)
    def test_undecodable_byte_is_named_by_row(self, tmp_path, loader, header):
        path = tmp_path / "data.csv"
        path.write_bytes(header + b"\n0.25,1,1.5\n0.\xff2,0,2.0\n")
        with pytest.raises(ValueError, match="^malformed row at row 3: unparseable number$"):
            loader(path)

    @pytest.mark.parametrize("loader, header", LOADERS)
    @pytest.mark.parametrize(
        "body",
        [
            b'\n"0.5\n",1,1\n0.2,0,1\n0.3,0,1\n',
            b'\n"0.5\n",1,1\n0.2,0,1\n0.3,0,nan\n',  # a bad row on line 5
            b'\n"0.5\r",1,1\n0.2,0,1\n0.3,0,1\n',
        ],
        ids=["quoted-lf", "quoted-lf-then-bad-row", "quoted-cr"],
    )
    def test_line_end_inside_a_field_is_named_by_row(self, tmp_path, loader, header, body):
        # csv joins the quoted line end into one record, so row numbers after
        # it would no longer count file lines: the field itself is the error
        path = tmp_path / "data.csv"
        path.write_bytes(header + body)
        with pytest.raises(ValueError, match="^malformed row at row 2: line end inside a field$"):
            loader(path)

    @pytest.mark.parametrize(
        "loader, header, bad_row, message",
        [
            (load_csv, ["x0", "x1", "d", "y"], [0.5, 0.5, 2, 1.0], "non-binary treatment"),
            (load_points_csv, ["x0", "x1", "x2", "x3"], [0.5, "nan", 1, 1.0], "non-finite value"),
        ],
        ids=["load_csv", "load_points_csv"],
    )
    def test_far_bad_row_is_named_by_file_line(
        self, tmp_path, big_rows, loader, header, bad_row, message
    ):
        rows = list(big_rows)
        rows[80_001 - 2] = bad_row  # the header is line 1
        path = write_rows(tmp_path / "data.csv", header, rows)
        with pytest.raises(ValueError, match=f"^{message} at row 80001$"):
            loader(path)

    def test_loader_peak_stays_within_twice_the_parsed_matrix(self, tmp_path, big_rows):
        data_path = write_rows(tmp_path / "data.csv", ["x0", "x1", "d", "y"], big_rows)
        points_path = write_rows(tmp_path / "points.csv", ["x0", "x1", "x2", "x3"], big_rows)
        matrix_bytes = len(big_rows) * 4 * 8
        tracemalloc.start()
        try:
            load_points_csv(points_path)
            points_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            data = load_csv(data_path)
            data_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert points_peak <= 2 * matrix_bytes
        # the dataset holds its own copy of every value, on top of what parsing needs
        dataset_bytes = data.covariates.nbytes + data.treatment.nbytes + data.outcome.nbytes
        assert data_peak <= 2 * matrix_bytes + dataset_bytes


class TestDatasetInvariants:
    def test_arm_counts_sum(self):
        data = ObservationalDataset(
            covariates=np.zeros((3, 1)), treatment=[1, 0, 1], outcome=[1.0, 2.0, 3.0]
        )
        assert data.n_treated + data.n_control == data.n

    def test_rejects_non_binary(self):
        for treatment in (
            [1, 2],
            np.array([1, 2], dtype=np.uint8),
            np.array([1.0, 0.5]),
            np.array([1.0, np.nan]),
            np.array([1, 1j]),
            np.array([1, "1"], dtype=object),
            np.array(["1", "0"]),
        ):
            with pytest.raises(ValueError, match="non-binary"):
                ObservationalDataset(
                    covariates=np.zeros((2, 1)), treatment=treatment, outcome=[0.0, 0.0]
                )

    @pytest.mark.parametrize(
        "treatment",
        [
            np.array([True, False]),
            np.array([1, 0], dtype=np.uint8),
            np.array([1.0, -0.0]),
            np.array([1, 0], dtype=object),
        ],
        ids=["bool", "uint8", "negative-zero", "object"],
    )
    def test_accepts_zero_one_of_any_dtype(self, treatment):
        data = ObservationalDataset(
            covariates=np.zeros((2, 1)), treatment=treatment, outcome=[0.0, 0.0]
        )
        assert data.treatment.dtype == np.int64
        np.testing.assert_array_equal(data.treatment, [1, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ObservationalDataset(
                covariates=np.array([[np.nan], [0.0]]), treatment=[1, 0], outcome=[0.0, 0.0]
            )

    def test_immutable_arrays(self):
        data = ObservationalDataset(
            covariates=np.zeros((2, 1)), treatment=[1, 0], outcome=[0.0, 0.0]
        )
        with pytest.raises(ValueError):
            data.covariates[0, 0] = 1.0


# each checks its sample before anything else, so the other arguments fit a 4 x 1 sample
SAMPLE_OWNERS = {
    "covariates": lambda x: ObservationalDataset(x, [1, 0, 1, 0], np.zeros(4)).covariates,
    "denominator": lambda x: TwoSampleData(denominator=x, numerator=np.zeros((2, 1))).denominator,
    "numerator": lambda x: TwoSampleData(denominator=np.zeros((2, 1)), numerator=x).numerator,
    "reference points": lambda x: _tree(x).data,
    "point cloud": lambda x: gaussian_grid_basis(x),
}


class TestSampleRule:
    """Every sample a dataset, a kd-tree or a Gaussian grid takes obeys one rule."""

    @pytest.mark.parametrize("name", SAMPLE_OWNERS)
    @pytest.mark.parametrize(
        "shape", [(6, 0), (0, 1), (4, 1, 1), ()], ids=["zero-width", "no-rows", "3-d", "scalar"]
    )
    def test_bad_shape_is_named(self, name, shape):
        # zero width leaves no coordinate to match on: a named error, not an
        # IndexError in the kd-tree
        message = f"{name} must be an n x d matrix with n >= 1 and d >= 1, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SAMPLE_OWNERS[name](np.zeros(shape))

    @pytest.mark.parametrize("name", SAMPLE_OWNERS)
    def test_non_finite_entry_is_named(self, name):
        with pytest.raises(ValueError, match=f"^non-finite value in {name}$"):
            SAMPLE_OWNERS[name](np.array([[0.0], [np.inf], [1.0], [2.0]]))

    @pytest.mark.parametrize("name", [n for n in SAMPLE_OWNERS if n != "point cloud"])
    def test_stored_form_is_a_read_only_column_of_its_own(self, name):
        given = np.array([0.5, 1.5, 2.5, 3.5])
        stored = SAMPLE_OWNERS[name](given)
        assert stored.shape == (4, 1) and stored.flags.owndata and not stored.flags.writeable
        given[0] = 9.0  # the caller's array stays writable and reaches nothing stored
        np.testing.assert_array_equal(stored[:, 0], [0.5, 1.5, 2.5, 3.5])


def _round_trip(points):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.csv"
        save_points_csv(points, path)
        return load_points_csv(path)


# Every taker of a batch of points ``x``, beside a reference sample ``ref`` of
# the dimension the taker expects.
POINT_TAKERS = {
    "covariates": lambda ref, x: ObservationalDataset(x, [0, 1, 0, 1, 0], np.zeros(5)).covariates,
    "two-sample": lambda ref, x: TwoSampleData(denominator=x, numerator=ref).denominator,
    "reference points": lambda ref, x: _tree(x).data,
    "point cloud": lambda ref, x: gaussian_grid_basis(x, per_dim=3)(ref),
    "queries": lambda ref, x: query_indices(_tree(ref), 2, x),  # through _knn_blocks
    "indicator_dre": lambda ref, x: indicator_dre(TwoSampleData(ref, ref[::2]), 2, x),
    "gaussian evaluate": lambda ref, x: gaussian_grid_basis(ref, per_dim=3)(x),
    "polynomial_feature_matrix": lambda ref, x: polynomial_feature_matrix(x, 2),
    "save_points_csv": lambda ref, x: _round_trip(x),
}
# The takers that read a batch against a dimension fixed before it.
DIMENSIONED = ["queries", "indicator_dre", "gaussian evaluate"]


class TestOnePointsReading:
    """Every taker of points reads a batch by one rule, the one samples obey."""

    line = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    ref_1d = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    ref_2d = np.random.default_rng(0).normal(size=(6, 2))

    @pytest.mark.parametrize("name", POINT_TAKERS)
    def test_a_1d_input_is_one_column(self, name):
        taker = POINT_TAKERS[name]
        np.testing.assert_array_equal(
            taker(self.ref_1d, self.line), taker(self.ref_1d, self.line[:, None])
        )

    @pytest.mark.parametrize("name", DIMENSIONED)
    def test_a_1d_input_in_d2_names_the_dimension(self, name):
        message = r"^dimension mismatch: expected \w+ of dimension 2, got 1$"
        with pytest.raises(ValueError, match=message):
            POINT_TAKERS[name](self.ref_2d, self.line)

    @pytest.mark.parametrize("name", DIMENSIONED + ["polynomial_feature_matrix"])
    def test_a_nan_entry_is_named(self, name):
        # not the kd-tree's "squared distance overflows float64"
        with pytest.raises(ValueError, match=r"^non-finite value in (queries|points)$"):
            POINT_TAKERS[name](self.ref_2d, np.array([[0.0, 0.0], [np.nan, 0.0]]))

    def test_an_empty_batch_gives_no_rows(self):
        empty = np.empty((0, 2))
        assert gaussian_grid_basis(self.ref_2d, per_dim=3)(empty).shape == (0, 9)
        assert polynomial_feature_matrix(empty, 2).shape == (0, 6)
        assert indicator_dre(TwoSampleData(self.ref_2d, self.ref_2d), 2, empty).shape == (0,)

    def test_a_scalar_is_no_batch(self):
        for name in DIMENSIONED:
            with pytest.raises(ValueError, match=r"must be an n x d matrix .* got shape \(\)$"):
                POINT_TAKERS[name](self.ref_1d, 0.5)

    def test_a_float_matrix_is_read_uncopied(self):
        x = self.ref_2d
        assert dataset._points(x, "points", 2) is x
        assert np.shares_memory(dataset._points(x[:, 0], "points"), x)


# sha256 of the covariate, treatment and outcome bytes of generate(n, seed, dimension),
# recorded from the generator that took a DgpSpec, before the design became plain functions
GENERATE_SHA256 = {
    (500, 3, 2): (
        "04784a621b3d13bf884e70ca61abf89b3e32738c30b488d99ed6216762a9492e",
        "e23764ec4c4c80d3a905dcb6c1858d243c3c348ca2dbfbfeb091cc32cf975eaf",
        "a3e51f4ff056dcf41d0ce8ee43559ade3d4c64c4ddb269b4ccbba0277414ad6d",
    ),
    (2000, 0, 1): (
        "8dcc768c3a13429cf2dfa9706a5f04a00382eb0bc05786e9f5180a2ea1855cfa",
        "53dedfaae362064090e15341b3a8ca3d58cf4e030077881c9915b191417a378c",
        "5e701f9c70661b968899d9f082ba253397119c859798ded30b48b6adac3f8b71",
    ),
    (300, 7, 17): (
        "67154563860b96b2e69efe5c72124d6c2e469dba67e4ce879cb3d48c4946a52f",
        "dfb7d4788cd6bad74dd671774f475090b1288337cc9aabf468feb23320a1b15d",
        "729787e8061c0fa976d0b02aaf158986504384f9e4710719ec8fe38d0b7337df",
    ),
}


class TestGenerate:
    def test_seed_determinism(self):
        a = generate(200, seed=11)
        b = generate(200, seed=11)
        c = generate(200, seed=12)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.treatment, b.treatment)
        np.testing.assert_array_equal(a.outcome, b.outcome)
        assert not np.array_equal(a.outcome, c.outcome)

    @pytest.mark.parametrize("key", sorted(GENERATE_SHA256))
    def test_draws_are_pinned(self, key):
        data = generate(*key)
        arrays = (data.covariates, data.treatment, data.outcome)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == GENERATE_SHA256[key]

    def test_treated_fraction_half_propensity(self):
        # e(x) - 1/2 is odd in x1 and X1 ~ Uniform[-1, 1], so E[e(X)] = 1/2
        data = generate(1000, seed=7)
        frac = data.n_treated / data.n
        assert abs(frac - 0.5) <= 5 * np.sqrt(0.25 / 1000)

    def test_noiseless_contrast_exact(self):
        # the draws are covariates, treatment uniforms, then the noise z: y = mu_D(x) + z
        data = generate(500, seed=3)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, size=(500, 2))
        u = rng.random(500)
        z = rng.standard_normal(500)
        assert x.tobytes() == data.covariates.tobytes()
        np.testing.assert_array_equal(data.treatment, u < logistic_propensity(x))
        mu1, mu0 = logistic_means(x)
        assert (np.where(data.treatment == 1, mu1, mu0) + z).tobytes() == data.outcome.tobytes()

    def test_logistic_sample_contrast_near_true_ate(self):
        data = generate(2000, seed=1)
        mu1, mu0 = logistic_means(data.covariates)
        diff = mu1 - mu0
        ated = diff.mean()
        tol = 3 * diff.std(ddof=1) / np.sqrt(data.n)
        assert abs(ated - LOGISTIC_TRUE_ATE) < tol

    def test_logistic_true_ate_mc_oracle(self):
        # 1e6 fresh draws agree with the frozen analytic constant
        rng = np.random.default_rng(987)
        mu1, mu0 = logistic_means(rng.uniform(-1.0, 1.0, size=(10**6, 2)))
        diff = mu1 - mu0
        se = diff.std(ddof=1) / 1000.0
        assert abs(diff.mean() - LOGISTIC_TRUE_ATE) < 4 * se

    def test_overlap_probes_within_epsilon_band(self):
        rng = np.random.default_rng(0)
        e = logistic_propensity(rng.uniform(-1.0, 1.0, size=(10**5, 2)))
        assert e.min() >= 0.1
        assert e.max() <= 0.9

    def test_n_too_small(self):
        with pytest.raises(ValueError, match="n must be >= 2"):
            generate(1, seed=0)

    def test_dimension_below_one(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            generate(10, seed=0, dimension=0)

    def test_unknown_builtin(self, capsys):
        # the logistic design is the one built-in; argparse refuses any other name
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["weights", "--dgp", "nope"])
        assert exit_info.value.code == 2
        assert "argument --dgp: invalid choice: 'nope'" in capsys.readouterr().err
