import concurrent.futures
import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import fit_on, fitted_value, parse_report
from rieszmatch import (
    ObservationalDataset, TwoSampleData, cli, generate, logistic_propensity, lsif, save_csv,
    save_points_csv,
)
from rieszmatch.report import RECORD_SEPARATOR

FOUR_UNIT_CSV = "x0,d,y\n0.0,1,1.0\n2.0,1,3.0\n0.1,0,0.0\n1.9,0,2.0\n"
DEN_CSV = "x0\n0.0\n1.0\n2.0\n3.0\n"
NUM_CSV = "x0\n0.4\n2.6\n"
PTS_CSV = "x0\n0.0\n"


@pytest.fixture
def four_unit_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(FOUR_UNIT_CSV)
    return path


def run(tmp_path, *argv):
    out = tmp_path / "report.txt"
    code = cli.main([*argv, "--output", str(out)])
    return code, out.read_text()


class TestAte:
    @pytest.mark.parametrize(
        "estimator,expected,variant,max_weight",
        [
            ("matching", 1.0, "matching", 2.0),
            ("weight", 1.0, "weight_form", 2.0),
            ("bc", 1.0, "bias_corrected", 2.0),
            ("dr", 1.0, "dr_riesz", 2.0),
        ],
        ids=["matching-1.0", "weight-1.0", "bc-1.0", "dr-1.0"],
    )
    def test_four_unit_tau(
        self, tmp_path, four_unit_file, estimator, expected, variant, max_weight
    ):
        code, text = run(
            tmp_path,
            "ate", "--input", str(four_unit_file), "--m", "1",
            "--estimator", estimator, "--degree", "0",
        )
        assert code == 0
        header, records = parse_report(text)
        assert float(header["tau"]) == pytest.approx(expected, abs=1e-12)
        assert len(records) == 1
        assert records[0]["variant"] == variant
        assert float(records[0]["max_weight"]) == max_weight

    @pytest.mark.parametrize("estimator", ["matching", "weight", "bc", "dr"])
    def test_byte_order_mark_changes_only_the_input_line(self, tmp_path, estimator):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_csv(generate(300, seed=2), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            code, text = run(tmp_path, "ate", "--input", str(path), "--estimator", estimator)
            assert code == 0
            reports.append(text.replace(f"input={path}\n", ""))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("estimator", ["matching", "weight"])
    def test_overflowing_estimate_exits_two(self, tmp_path, capsys, estimator):
        # a matched mean sums M outcomes of 1.7e308 and overflows; the true ATE is 0
        path = tmp_path / "huge.csv"
        path.write_text("x0,d,y\n" + "".join(f"0.{k},{k % 2},1.7e308\n" for k in range(1, 7)))
        assert cli.main(["ate", "--input", str(path), "--estimator", estimator, "--m", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the {estimator} estimate overflowed: tau=nan\n"

    @pytest.mark.parametrize("estimator", ["bc", "dr"])
    def test_constant_huge_outcome_within_one_ulp(self, tmp_path, estimator):
        # the true ATE of a constant outcome is 0; roundoff at 1.7e308 is below one ulp
        path = tmp_path / "huge.csv"
        path.write_text("x0,d,y\n" + "".join(f"0.{k},{k % 2},1.7e308\n" for k in range(1, 7)))
        code, text = run(tmp_path, "ate", "--input", str(path), "--estimator", estimator, "--m", "2")
        assert code == 0
        assert abs(float(parse_report(text)[0]["tau"])) <= np.spacing(1.7e308)

    def test_outcome_fit_takes_any_covariate_scale(self, tmp_path):
        # the fit scales a column by a power of two, so x 8192 gives the same tau
        data = generate(20_000, seed=0)
        taus = {}
        for scale in (1.0, 8192.0, 1e150):
            path = tmp_path / f"x{scale}.csv"
            save_csv(ObservationalDataset(data.covariates * scale, data.treatment, data.outcome), path)
            argv = ["ate", "--input", str(path), "--estimator", "dr", "--degree", "3"]
            code, text = run(tmp_path, *argv)
            assert code == 0
            taus[scale] = float(parse_report(text)[0]["tau"])
        assert abs(taus[8192.0] - taus[1.0]) <= 1e-12
        assert np.isfinite(taus[1e150])

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["ate", "--input", str(tmp_path / "nope.csv"), "--m", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_csv_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,d,y\n0.0,2,1.0\n")
        assert cli.main(["ate", "--input", str(bad), "--m", "1"]) == 2

    def test_directory_input_exits_two(self, tmp_path, capsys):
        assert cli.main(["ate", "--input", str(tmp_path), "--m", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dr_traced_peak_stays_near_the_parsed_matrix(self, tmp_path):
        # 20k rows in d=2 at the default M=55: the match's row blocks dominate
        # the peak, 7.7x the parsed (n, d+2) matrix with 2^16-entry blocks
        path = tmp_path / "data.csv"
        data = generate(20_000, seed=0)
        save_csv(data, path)
        matrix_bytes = data.n * (data.d + 2) * 8
        argv = ["ate", "--input", str(path), "--estimator", "dr", "--output", str(tmp_path / "r")]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 6 * matrix_bytes, peak / matrix_bytes


class TestDre:
    def test_indicator_running_instance(self, tmp_path):
        (tmp_path / "den.csv").write_text(DEN_CSV)
        (tmp_path / "num.csv").write_text(NUM_CSV)
        (tmp_path / "pts.csv").write_text(PTS_CSV)
        code, text = run(
            tmp_path,
            "dre", "--denominator", str(tmp_path / "den.csv"),
            "--numerator", str(tmp_path / "num.csv"),
            "--eval-points", str(tmp_path / "pts.csv"),
            "--m", "1", "--basis", "indicator",
        )
        assert code == 0
        header, records = parse_report(text)
        assert float(records[0]["r_hat"]) == 2.0

    @pytest.mark.parametrize(
        "basis,flag,value", [("poly", "--degree", "3"), ("gauss", "--grid", "5")]
    )
    def test_header_names_the_basis_parameter(self, tmp_path, basis, flag, value):
        # two fits that differ only in --degree or --grid get different headers
        for name, body in (("den", DEN_CSV), ("num", NUM_CSV), ("pts", PTS_CSV)):
            (tmp_path / f"{name}.csv").write_text(body)
        code, text = run(
            tmp_path,
            "dre", "--denominator", str(tmp_path / "den.csv"),
            "--numerator", str(tmp_path / "num.csv"),
            "--eval-points", str(tmp_path / "pts.csv"),
            "--basis", basis, flag, value, "--lambda", "0.1",
        )
        assert code == 0
        header, _ = parse_report(text)
        keys = list(header)
        assert keys[keys.index("basis") + 1] == flag[2:] and header[flag[2:]] == value
        assert "m" not in header

    @pytest.mark.parametrize("grid", ["0", "-1"])
    @pytest.mark.parametrize("lam", [[], ["--lambda", "0.1"]])
    def test_empty_gaussian_grid_exits_two(self, tmp_path, capsys, grid, lam):
        for name, body in (("den", DEN_CSV), ("num", NUM_CSV), ("pts", PTS_CSV)):
            (tmp_path / f"{name}.csv").write_text(body)
        code = cli.main([
            "dre", "--denominator", str(tmp_path / "den.csv"),
            "--numerator", str(tmp_path / "num.csv"),
            "--eval-points", str(tmp_path / "pts.csv"),
            "--basis", "gauss", "--grid", grid, *lam,
        ])
        assert code == 2
        assert f"grid size must be >= 1, got {grid}" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    @pytest.mark.parametrize("basis", ["indicator", "poly", "gauss"])
    def test_lambda_not_finite_exits_two(self, tmp_path, capsys, basis, lam):
        for name, body in (("den", DEN_CSV), ("num", NUM_CSV), ("pts", PTS_CSV)):
            (tmp_path / f"{name}.csv").write_text(body)
        code = cli.main([
            "dre", "--denominator", str(tmp_path / "den.csv"),
            "--numerator", str(tmp_path / "num.csv"),
            "--eval-points", str(tmp_path / "pts.csv"),
            "--basis", basis, "--lambda", lam,
        ])
        assert code == 2
        assert f"lambda must be finite and nonnegative, got {lam}" in capsys.readouterr().err

    def test_oversized_gaussian_grid_exits_two(self, tmp_path, capsys):
        # the default 4 per dimension in d=17 is 4^17 centers: refused before
        # anything is allocated, as an input error
        rng = np.random.default_rng(0)
        for name in ("den", "num"):
            save_points_csv(rng.normal(size=(30, 17)), tmp_path / f"{name}.csv")
        code = cli.main([
            "dre", "--denominator", str(tmp_path / "den.csv"),
            "--numerator", str(tmp_path / "num.csv"),
            "--eval-points", str(tmp_path / "num.csv"),
            "--basis", "gauss",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "Gaussian grid of 4 per dimension in d=17 has 17179869184 centers" in err

    def test_zero_extent_gaussian_denominator_exits_two(self, tmp_path, capsys):
        # 50 identical rows span no box, so the grid has no bandwidth
        save_points_csv(np.full((50, 2), 0.7), tmp_path / "den.csv")
        save_points_csv(np.random.default_rng(0).normal(size=(20, 2)), tmp_path / "num.csv")
        code = cli.main([
            "dre", "--denominator", str(tmp_path / "den.csv"),
            "--numerator", str(tmp_path / "num.csv"),
            "--eval-points", str(tmp_path / "num.csv"),
            "--basis", "gauss",
        ])
        assert code == 2
        assert "point cloud has zero extent" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["0", "0.01"])
    def test_overflowing_moments_exit_two(self, tmp_path, capsys, lam):
        # rows of about 1e120: the degree-2 features are finite and their products
        # are not; the fit printed r_hat=nan at every point and exited 0
        (tmp_path / "den.csv").write_text("x0\n1e120\n2e120\n3e120\n4e120\n")
        (tmp_path / "num.csv").write_text("x0\n1.5e120\n2.5e120\n3.5e120\n0.5e120\n")
        with np.errstate(over="ignore"):
            code = cli.main([
                "dre", "--denominator", str(tmp_path / "den.csv"),
                "--numerator", str(tmp_path / "num.csv"),
                "--eval-points", str(tmp_path / "num.csv"),
                "--basis", "poly", "--degree", "2", "--lambda", lam,
            ])
        assert code == 2
        assert "error: non-finite moments" in capsys.readouterr().err

    def test_gaussian_r_hat_is_scale_free(self, tmp_path):
        # every input times 2^-40: the bandwidth scales with the box, so each
        # r_hat keeps its last bit
        rng = np.random.default_rng(0)
        samples = {"den": rng.normal(size=(60, 2)), "num": 0.3 + rng.normal(size=(40, 2))}
        samples["pts"] = rng.normal(size=(10, 2))
        r_hats = []
        for scale in (1.0, 2.0**-40):
            for name, points in samples.items():
                save_points_csv(points * scale, tmp_path / f"{name}.csv")
            code, text = run(
                tmp_path,
                "dre", "--denominator", str(tmp_path / "den.csv"),
                "--numerator", str(tmp_path / "num.csv"),
                "--eval-points", str(tmp_path / "pts.csv"), "--basis", "gauss",
            )
            assert code == 0
            r_hats.append([record["r_hat"] for record in parse_report(text)[1]])
        assert r_hats[0] == r_hats[1]
        assert len(set(r_hats[0])) == 10  # not one constant

    @pytest.mark.parametrize("basis", ["poly", "gauss"])
    def test_smooth_bases_run(self, tmp_path, basis):
        rng = np.random.default_rng(0)
        samples = {"den": rng.normal(size=(60, 2)), "num": rng.normal(size=(40, 2))}
        samples["pts"] = rng.normal(size=(50, 2))
        for name, points in samples.items():
            body = "".join(f"{x0!r},{x1!r}\n" for x0, x1 in points.tolist())
            (tmp_path / f"{name}.csv").write_text("x0,x1\n" + body)
        code, text = run(
            tmp_path,
            "dre", "--denominator", str(tmp_path / "den.csv"),
            "--numerator", str(tmp_path / "num.csv"),
            "--eval-points", str(tmp_path / "pts.csv"),
            "--m", "1", "--basis", basis,
        )
        assert code == 0
        header, records = parse_report(text)
        assert len(records) == 50
        data = TwoSampleData(denominator=samples["den"], numerator=samples["num"])
        if basis == "poly":
            smooth = functools.partial(lsif.polynomial_feature_matrix, degree=2)
        else:
            smooth = lsif.gaussian_grid_basis(data.denominator, per_dim=4)
        lam, beta = fit_on(data, smooth)
        assert header["lambda"] == repr(lam)
        # each r_hat is the per-point dot product, to the last bit
        for record, point in zip(records, samples["pts"]):
            assert np.isfinite(float(record["r_hat"]))
            assert record["r_hat"] == repr(fitted_value(smooth, beta, point[None]))


class TestWeights:
    def test_csv_source_oracle_na(self, tmp_path, four_unit_file):
        code, text = run(
            tmp_path, "weights", "--input", str(four_unit_file), "--m", "1"
        )
        assert code == 0
        _, records = parse_report(text)
        assert len(records) == 4
        assert all(record["oracle"] == "na" for record in records)
        assert all(float(record["w"]) == 2.0 for record in records)
        assert [int(r["k"]) for r in records] == [1, 1, 1, 1]

    def test_dgp_source_has_oracle(self, tmp_path):
        code, text = run(
            tmp_path, "weights", "--dgp", "logistic", "--n", "80", "--seed", "4", "--m", "2"
        )
        assert code == 0
        _, records = parse_report(text)
        assert len(records) == 80
        oracles = np.array([float(r["oracle"]) for r in records])
        assert np.all(oracles > 1.0)  # inverse propensities exceed 1
        # the columns are the draw's own: its treatment, 1 + k/m and the arm's 1/e or 1/(1-e)
        data = generate(80, 4)
        e = logistic_propensity(data.covariates)
        assert [int(r["d"]) for r in records] == data.treatment.tolist()
        assert [r["w"] for r in records] == [repr(1.0 + int(r["k"]) / 2) for r in records]
        expected = [
            repr(float(1.0 / p if treated else 1.0 / (1.0 - p)))
            for treated, p in zip(data.treatment, e)
        ]
        assert [r["oracle"] for r in records] == expected

    def test_requires_exactly_one_source(self, tmp_path, capsys, four_unit_file):
        both = ["--input", str(four_unit_file), "--dgp", "logistic"]
        for argv, message in (([], "one of the arguments"), (both, "not allowed with")):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["weights", *argv])
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--n", "4"], ["--seed", "0"], ["--n", "500", "--seed", "0"]])
    def test_input_refuses_the_dgp_draw_flags(self, tmp_path, capsys, four_unit_file, flag):
        # a CSV is read whole and draws nothing, so --n and --seed would select nothing
        assert cli.main(["weights", "--input", str(four_unit_file), *flag]) == 2
        err = capsys.readouterr().err
        assert err == "error: --n and --seed set the --dgp draw; --input takes neither\n"

    def test_dgp_draw_defaults(self, tmp_path):
        code, text = run(tmp_path, "weights", "--dgp", "logistic", "--m", "2")
        assert code == 0
        header, records = parse_report(text)
        assert (header["n"], header["seed"], len(records)) == ("500", "0", 500)

    @pytest.mark.parametrize("source", ["--dgp", "--input"])
    def test_each_header_key_once(self, tmp_path, four_unit_file, source):
        # a reader that keys the header by name loses nothing
        if source == "--dgp":
            argv = ["--dgp", "logistic", "--n", "40"]
        else:
            argv = ["--input", str(four_unit_file)]
        code, text = run(tmp_path, "weights", *argv, "--m", "1")
        keys = [line.split("=", 1)[0] for line in text.split(RECORD_SEPARATOR)[0].splitlines()]
        assert code == 0 and "n" in keys
        assert len(keys) == len(set(keys)), keys


class TestSimulate:
    def test_rows_and_summary(self, tmp_path):
        code, text = run(
            tmp_path, "simulate", "--dgp", "logistic", "--n", "200", "--reps", "5",
            "--seed", "3",
        )
        assert code == 0
        header, records = parse_report(text)
        assert len(records) == 5
        assert [int(r["rep"]) for r in records] == [0, 1, 2, 3, 4]
        assert header["true_ate"] == "1.0"
        for name in ("matching", "weight_form", "regression", "bias_corrected", "dr_riesz"):
            mean = float(header[f"summary.{name}.mean"])
            bias = float(header[f"summary.{name}.bias"])
            assert bias == pytest.approx(mean - 1.0, abs=1e-15)
            # mean squared error = squared bias + variance (population form)
            sd, rmse = float(header[f"summary.{name}.sd"]), float(header[f"summary.{name}.rmse"])
            assert rmse**2 == pytest.approx(bias**2 + sd**2 * (5 - 1) / 5, rel=1e-12)

    def test_record_and_summary_key_order(self, tmp_path):
        _, text = run(tmp_path, "simulate", "--n", "100", "--reps", "2", "--seed", "3")
        header, records = parse_report(text)
        names = ["matching", "weight_form", "regression", "bias_corrected", "dr_riesz"]
        for record in records:
            assert list(record) == ["rep", "seed"] + [f"tau_{name}" for name in names]
        summary = [key for key in header if key.startswith("summary.")]
        stats = ["mean", "sd", "bias", "rmse"]
        assert summary == [f"summary.{name}.{stat}" for name in names for stat in stats]

    def test_byte_identical_across_jobs(self, tmp_path):
        for argv in (
            ["simulate", "--dgp", "logistic", "--n", "150", "--reps", "4", "--seed", "9"],
            ["verify", "--instances", "6", "--seed", "5845163996291497452"],
        ):
            _, first = run(tmp_path, *argv, "--jobs", "1")
            _, second = run(tmp_path, *argv, "--jobs", "2")
            assert first == second

    def test_unknown_dgp_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["simulate", "--dgp", "nope", "--n", "100", "--reps", "2"])
        assert exit_info.value.code == 2
        assert "argument --dgp: invalid choice: 'nope'" in capsys.readouterr().err

    def test_pool_starts_no_more_workers_than_tasks(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        argv = ["simulate", "--n", "100", "--reps", "3"]
        _, serial = run(tmp_path, *argv)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # the pool is the least of --jobs, the task count and the CPU count; one
        # CPU, or an unknown count, runs serially
        for cpus, pool in ((64, [3]), (2, [2]), (1, []), (None, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sizes.clear()
            _, pooled = run(tmp_path, *argv, "--jobs", "8")
            assert sizes == pool
            assert pooled == serial

    def test_import_leaves_multiprocessing_unloaded(self):
        # a serial run starts no pool, so it need not pay for loading one
        src = str(Path(cli.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        probe = "import sys, rieszmatch.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "False\n"


class TestVerify:
    def test_small_run_passes(self, tmp_path):
        code, text = run(tmp_path, "verify", "--instances", "3", "--seed", "1")
        assert code == 0
        header, records = parse_report(text)
        assert header["status"] == "pass"
        assert len(records) == 3
        for record in records:
            assert float(record["theorem1_gap"]) <= 1e-12

    def test_single_instance(self, tmp_path):
        code, text = run(tmp_path, "verify", "--instances", "1", "--seed", "5")
        assert code == 0
        _, records = parse_report(text)
        assert len(records) == 1

    def test_large_coefficient_separability_judged_relative(self, tmp_path):
        # instance 14 (n=25, degree 2) has a control coefficient near 279: its
        # absolute joint vs arm-wise gap exceeds 1e-12, its relative gap does not
        code, text = run(tmp_path, "verify", "--instances", "50", "--seed", "5845163996291497452")
        assert code == 0
        header, records = parse_report(text)
        assert header["status"] == "pass"
        assert records[14]["separability_gap"] == "1.2505552149377763e-12"
        assert float(records[14]["separability_rel_gap"]) <= 1e-14
        assert float(header["max.separability_gap"]) > float(header["threshold"])

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        assert cli.main(["verify", "--instances", "1", "--output", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_other_os_errors_are_not_input_errors(self, monkeypatch):
        # a closed stdout pipe or a pool that cannot start must not read as exit 2
        def fail(args):
            raise BlockingIOError("resource temporarily unavailable")

        monkeypatch.setitem(cli._DISPATCH, "verify", fail)
        with pytest.raises(BlockingIOError):
            cli.main(["verify", "--instances", "1"])

    def test_broken_component_fails(self, tmp_path, monkeypatch):
        # negative control: one corrupted gap in the last instance must flip the exit
        # status and show in the header's maximum, also when it is NaN and follows a
        # finite gap in the instance and in the header
        from rieszmatch import equivalence

        real, last = equivalence.run_instance, equivalence.instance_seeds(1, 2)[1]
        corruptions = {"theorem1_gap": lambda gap: gap + 1e-6, "eq1_gap": lambda gap: np.nan}
        for name, corrupt in corruptions.items():

            def broken(seed):
                gaps = real(seed)
                return {**gaps, name: corrupt(gaps[name])} if seed == last else gaps

            monkeypatch.setattr(cli.eq, "run_instance", broken)
            code, text = run(tmp_path, "verify", "--instances", "2", "--seed", "1")
            assert code == 1
            header, _ = parse_report(text)
            assert header["status"] == "fail"
            assert not float(header[f"max.{name}"]) <= float(header["threshold"])


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "50", "--reps", "2"],
        ["verify", "--instances", "2"],
        ["weights", "--dgp", "logistic", "--n", "100"],
    ],
)
def test_jobs_below_one_exits_two(capsys, argv, jobs):
    # a pool size below one is an input error, not a silent serial run
    assert cli.main([*argv, "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


ARGV_WITHOUT_SEED = {
    "weights": ["--dgp", "logistic", "--n", "100"],
    "simulate": ["--n", "50", "--reps", "2"],
    "verify": ["--instances", "2"],
}


def draws_nothing_argv(tmp_path, four_unit_file, command):
    (tmp_path / "den.csv").write_text(DEN_CSV)
    den = str(tmp_path / "den.csv")
    return {
        "ate": ["--input", str(four_unit_file), "--m", "1"],
        "dre": ["--denominator", den, "--numerator", den, "--eval-points", den],
    }[command]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["ate", "dre", "weights", "simulate", "verify"])
def test_seed_outside_uint64_exits_two(tmp_path, capsys, four_unit_file, command, seed):
    if command in ARGV_WITHOUT_SEED:
        assert cli.main([command, *ARGV_WITHOUT_SEED[command], "--seed", seed]) == 2
        assert f"error: --seed must be in [0, 2^64), got {seed}\n" == capsys.readouterr().err
        return
    # ate and dre declare no --seed, so any seed is an argument error
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *draws_nothing_argv(tmp_path, four_unit_file, command), "--seed", seed])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ate", "dre"])
def test_seed_on_a_command_that_draws_nothing_exits_two(tmp_path, capsys, four_unit_file, command):
    # ate and dre draw no random numbers, so they have no --seed to take
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, *draws_nothing_argv(tmp_path, four_unit_file, command), "--seed", "0"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_largest_seed_is_accepted(tmp_path):
    code, text = run(tmp_path, "simulate", "--n", "50", "--reps", "1", "--seed", str(2**64 - 1))
    assert code == 0
    assert parse_report(text)[0]["seed"] == str(2**64 - 1)


@pytest.mark.parametrize("command", ["ate", "weights", "dre"])
def test_overflowing_squared_distance_exits_two(tmp_path, capsys, command):
    # every squared distance between these points overflows float64
    xs = ["1e+200", "-1e+200", "3e+200", "-2e+200", "5e+200", "-4e+200"]
    data, points = tmp_path / "data.csv", str(tmp_path / "points.csv")
    data.write_text("x0,d,y\n" + "".join(f"{x},{k % 2},{k}\n" for k, x in enumerate(xs)))
    (tmp_path / "points.csv").write_text("x0\n" + "".join(f"{x}\n" for x in xs))
    argv = {
        "ate": ["--input", str(data), "--m", "1"],
        "weights": ["--input", str(data), "--m", "1"],
        "dre": ["--basis", "indicator", "--denominator", points, "--numerator", points,
                "--eval-points", points],
    }[command]
    assert cli.main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err == "error: covariates too far apart: a squared distance overflows float64\n"


class TestReportFormat:
    @pytest.mark.parametrize("command", ["ate", "dre", "weights", "simulate", "verify"])
    def test_command_key_first_and_each_header_key_once(self, tmp_path, four_unit_file, command):
        for name, text in (("den", DEN_CSV), ("num", NUM_CSV), ("pts", PTS_CSV)):
            (tmp_path / f"{name}.csv").write_text(text)
        argv = {
            "ate": ["--input", str(four_unit_file), "--m", "1"],
            "dre": ["--denominator", str(tmp_path / "den.csv"), "--numerator",
                    str(tmp_path / "num.csv"), "--eval-points", str(tmp_path / "pts.csv")],
            "weights": ["--dgp", "logistic", "--n", "40", "--m", "1"],
            "simulate": ["--n", "50", "--reps", "2"],
            "verify": ["--instances", "1"],
        }[command]
        code, text = run(tmp_path, command, *argv)
        lines = text.split(RECORD_SEPARATOR)[0].splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert code == 0 and lines[0] == f"command={command}"
        assert len(keys) == len(set(keys)), keys

    def test_numbers_round_trip(self, tmp_path):
        _, text = run(tmp_path, "verify", "--instances", "2", "--seed", "7")
        header, records = parse_report(text)
        for raw in list(header.values()) + [v for r in records for v in r.values()]:
            try:
                int(raw)
                continue  # integers round-trip through str exactly
            except ValueError:
                pass
            try:
                value = float(raw)
            except ValueError:
                continue  # non-numeric field
            assert repr(value) == raw

    def test_no_jobs_or_timing_in_body(self, tmp_path):
        _, text = run(tmp_path, "verify", "--instances", "1", "--seed", "2", "--jobs", "2")
        assert "jobs" not in text
        assert "timing" not in text
