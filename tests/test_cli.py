"""Command-line behavior: outputs, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dummyreg import build_design, parse_formula, read_csv, synthesize
from dummyreg.cli import main

from util import dataset_csv, load_spec

CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1)

TWO_GROUP_GOLDEN = (
    "             coefficients  standard error  t-value  p-value (2-tailed)\n"
    "(intercept)         25.23             .01  2523.00                <.01\n"
    "female               -.51             .01   -36.06                <.01\n"
)


@pytest.fixture
def two_group_csv(tmp_path):
    data = synthesize(load_spec("two_group_means.json"), spread=0.01)
    path = tmp_path / "two_group.csv"
    path.write_text(dataset_csv(data))
    return str(path)


@pytest.fixture
def crossed_csv(tmp_path):
    data = synthesize(load_spec("sex_by_education_means.json"), spread=0.3)
    path = tmp_path / "crossed.csv"
    path.write_text(dataset_csv(data))
    return str(path)


@pytest.fixture
def education_csv(tmp_path):
    data = synthesize(load_spec("education_means.json"), spread=0.5)
    path = tmp_path / "education.csv"
    path.write_text(dataset_csv(data))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_piped(text, *argv):
    """dummyreg in a child process, with text on a pipe as --data."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "dummyreg.cli", *argv, "--data", "/dev/stdin"],
        input=text.encode(), env=dict(os.environ, PYTHONPATH=src),
        capture_output=True)


needs_dev_stdin = pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                                     reason="no /dev/stdin")


class TestFit:
    def test_text_golden(self, capsys, two_group_csv):
        code, out, err = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ female"
        )
        assert code == 0 and err == ""
        assert out == TWO_GROUP_GOLDEN

    def test_json_output(self, capsys, education_csv):
        code, out, _ = run_cli(
            capsys, "fit", "--data", education_csv,
            "--formula", "bmi ~ edu", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["label"] for c in doc["coefficients"]] == [
            "(intercept)", "edu[middle]", "edu[high]",
        ]
        assert doc["references"] == {"edu": "low"}
        assert doc["scheme"] == "treatment"
        assert doc["n_rows"] == 8

    def test_json_writes_an_overflowed_statistic_as_null(self, capsys, tmp_path):
        # With y scaled by 2**510 the coefficients and R^2 are finite, but
        # RSS overflows, and with it sigma^2. The SEs, read from the
        # residual norm, stay finite.
        rng = np.random.default_rng(0)
        g = np.array(["a", "b"])[rng.integers(0, 2, 50)]
        y = np.ldexp(rng.normal(size=50) + (g == "b"), 510)
        path = tmp_path / "scaled.csv"
        path.write_text("y,g\n" + "".join(f"{v!r},{c}\n" for v, c in zip(y.tolist(), g)))
        code, out, err = run_cli(capsys, "fit", "--data", str(path),
                                 "--formula", "y ~ g", "--output", "json")
        assert (code, err) == (0, "")

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["rss"] is None and doc["sigma2"] is None
        assert all(np.isfinite(c[key]) for c in doc["coefficients"]
                   for key in ("estimate", "stderr", "t"))
        assert 0 < doc["r_squared"] < 1

    def test_json_writes_an_underflowed_statistic_as_null(self, capsys, tmp_path):
        # With y scaled by 2**-1000 RSS underflows to 0, and with it
        # sigma^2, beside nonzero SEs; a zero response's 0 is written as 0.
        rng = np.random.default_rng(4)
        g = np.arange(40) % 4
        docs = []
        for y in (np.ldexp(rng.normal(size=40) + 0.25 * g, -1000), np.zeros(40)):
            path = tmp_path / "y.csv"
            path.write_text("y,g\n" + "".join(f"{v!r},g{c}\n" for v, c in zip(y.tolist(), g)))
            code, out, err = run_cli(capsys, "fit", "--data", str(path),
                                     "--formula", "y ~ g", "--output", "json")
            assert (code, err) == (0, "")
            docs.append(json.loads(out))
        scaled, zero = docs
        assert scaled["rss"] is None and scaled["sigma2"] is None
        assert all(0 < c["stderr"] < 1e-300 for c in scaled["coefficients"])
        assert 0.2 < scaled["r_squared"] < 0.3
        assert (zero["rss"], zero["sigma2"]) == (0.0, 0.0)
        assert all(c["stderr"] == 0.0 for c in zero["coefficients"])

    def test_refs_flag_changes_reference(self, capsys, education_csv):
        code, out, _ = run_cli(
            capsys, "fit", "--data", education_csv, "--formula", "bmi ~ edu",
            "--refs", "edu=middle", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["references"] == {"edu": "middle"}
        assert abs(doc["coefficients"][0]["estimate"] - 24.94) < 1e-9

    def test_one_tailed_column(self, capsys, two_group_csv):
        code, out, _ = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ female",
            "--tail", "less:female",
        )
        assert code == 0
        assert "p-value (1-tailed, less)" in out.splitlines()[0]

    def test_one_tailed_json(self, capsys, two_group_csv):
        code, out, _ = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ female",
            "--tail", "less:female", "--output", "json",
        )
        doc = json.loads(out)
        assert doc["one_tailed"]["label"] == "female"
        assert doc["one_tailed"]["direction"] == "less"
        assert 0.0 <= doc["one_tailed"]["p"] <= 1.0

    def test_byte_determinism(self, capsys, crossed_csv):
        argv = ("fit", "--data", crossed_csv, "--formula", "bmi ~ female * edu")
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.skipif(CPUS < 2, reason="needs 2 CPUs")
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        n = 120_000
        rng = np.random.default_rng(7)
        edu = np.array(["low", "middle", "high"])[rng.integers(0, 3, n)]
        female = rng.integers(0, 2, n)
        age = rng.integers(18, 80, n)
        bmi = 22 + female + np.log(age) + rng.normal(size=n)
        path = tmp_path / "survey.csv"
        path.write_text("bmi,female,edu,age\n" + "".join(
            f"{b!r},{f},{e},{a}\n"
            for b, f, e, a in zip(bmi.tolist(), female.tolist(), edu.tolist(),
                                  age.tolist())))
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = [sys.executable, "-m", "dummyreg.cli", "fit", "--output", "json",
                "--data", str(path),
                "--formula", "bmi ~ female * edu + center(log(age), at=log(18))"]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(argv, env=env, capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_cat_of_a_number_leaves_numpy_ma_unloaded(self, tmp_path):
        # A fit has no use for numpy.ma. A bare np.unique imports it (numpy
        # 2.4); coding cat() numbers with return_inverse=True does not.
        path = tmp_path / "children.csv"
        path.write_text("y,children\n1.5,0\n2.5,1\n3.0,2\n4.5,1\n5.0,0\n6.5,2\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys\n"
                 "from dummyreg.cli import main\n"
                 f"code = main(['fit', '--data', {str(path)!r}, "
                 "'--formula', 'y ~ cat(children)'])\n"
                 "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.stdout.splitlines()[1].startswith("(intercept)")
        assert proc.stderr == "0 False\n"

    @needs_dev_stdin
    def test_piped_data_fits_as_the_file(self, capsys, crossed_csv):
        _, expected, _ = run_cli(capsys, "fit", "--data", crossed_csv,
                                 "--formula", "bmi ~ female * edu")
        proc = run_piped(Path(crossed_csv).read_text(), "fit",
                         "--formula", "bmi ~ female * edu")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == expected

    def test_csv_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbfy,g\n1,a\n2,b\n3,a\n4.5,b\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ g")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith("(intercept)")

    def test_rounding_past_the_decimal_context(self, capsys, two_group_csv):
        code, out, err = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ female",
            "--rounding", "30")
        assert (code, err) == (0, "")
        estimate = out.splitlines()[1].split()[1]
        assert len(estimate.partition(".")[2]) == 30


    def test_refs_spellings_of_a_number_name_one_level(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,k\n1.5,1\n2.5,2\n3.0,3\n4.5,1\n5.0,2\n6.5,3\n")
        outs = set()
        for level in ("2", "2.0", "02", "+2", "2e0"):
            code, out, err = run_cli(
                capsys, "fit", "--data", str(path), "--formula", "y ~ cat(k)",
                "--output", "json", "--refs", f"k={level}")
            assert (code, err) == (0, "")
            outs.add(out)
        assert len(outs) == 1
        assert json.loads(outs.pop())["references"] == {"k": "2"}
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ cat(k)",
            "--refs", "k=2.5")
        assert (code, out, err) == (3, "", "error: '2.5' is not a level of 'k'\n")


class TestRelevel:
    def test_same_fit_different_parametrization(self, capsys, education_csv):
        _, base_out, _ = run_cli(
            capsys, "fit", "--data", education_csv,
            "--formula", "bmi ~ edu", "--output", "json",
        )
        code, rel_out, _ = run_cli(
            capsys, "relevel", "--data", education_csv, "--formula", "bmi ~ edu",
            "--refs", "edu=high", "--output", "json",
        )
        assert code == 0
        base, rel = json.loads(base_out), json.loads(rel_out)
        assert abs(base["rss"] - rel["rss"]) < 1e-10
        assert abs(base["r_squared"] - rel["r_squared"]) < 1e-10
        assert rel["references"] == {"edu": "high"}

    def test_help_shows_the_tail_forms(self, capsys):
        code, out, _ = run_cli(capsys, "relevel", "--help")
        assert code == 0
        assert "--tail two|less:LABEL|greater:LABEL" in out
        assert "add a one-tailed p-value for one coefficient" in out

    def test_requires_refs(self, capsys, education_csv):
        code, _, err = run_cli(
            capsys, "relevel", "--data", education_csv, "--formula", "bmi ~ edu"
        )
        assert code == 2 and "refs" in err


class TestEncode:
    def test_header_and_exact_values(self, capsys, education_csv):
        code, out, _ = run_cli(
            capsys, "encode", "--data", education_csv, "--formula", "bmi ~ edu"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["(intercept)", "edu[middle]", "edu[high]", "bmi"]
        assert len(rows) == 9
        for row in rows[1:]:
            assert [float(cell) for cell in row[:3]] in (
                [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0],
            )
        assert float(rows[1][3]) == 26.12 - 0.5

    def test_effect_scheme_rows(self, capsys, education_csv):
        code, out, _ = run_cli(
            capsys, "encode", "--data", education_csv,
            "--formula", "bmi ~ edu", "--scheme", "effect",
        )
        rows = list(csv.reader(io.StringIO(out)))
        low_rows = [r for r in rows[1:] if float(r[1]) == -1.0]
        assert len(low_rows) == 3
        assert all(float(r[2]) == -1.0 for r in low_rows)

    @pytest.mark.parametrize("ages, repeated", [
        ("20 30 20 30 20 30 20 30", True),
        ("20 31 22 33 24 35 26 37", False),
    ])
    def test_bytes_match_per_row_formatting(self, capsys, tmp_path, ages, repeated):
        # A -0 in a 0/1 column and in the response, a cat() numeric and
        # a label holding a comma, with and without repeated patterns.
        rows = list(zip("24.5 25.25 23.0 26.5 -0 1e-3 22.75 30".split(),
                        "-0 1 0 1 -0 1 0 1".split(), "2 0 2 0 2 0 2 0".split(),
                        ages.split()))
        # -0 and 0 are two patterns, as their float bits differ.
        patterns = len({row[1:] for row in rows})
        path = tmp_path / "survey.csv"
        path.write_text("bmi,female,kids,age\n"
                        + "".join(",".join(row) + "\n" for row in rows))
        formula = "bmi ~ female*cat(kids) + center(log(age), at=log(18))"
        code, out, _ = run_cli(capsys, "encode", "--data", str(path),
                               "--formula", formula)
        design = build_design(parse_formula(formula), read_csv(str(path)))
        assert len(design.cell_table) == patterns
        assert (patterns < design.n_rows) == repeated
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow([label.text for label in design.labels] + ["bmi"])
        for values, y in zip(design.values, design.response):
            writer.writerow([repr(float(v)) for v in values] + [repr(float(y))])
        assert code == 0 and out == expected.getvalue()
        assert '"center(log(age), at=log(18))"' in out.splitlines()[0]
        assert "-0.0," in out


class TestPredict:
    def test_cell_mean_recovered(self, capsys, crossed_csv):
        code, out, _ = run_cli(
            capsys, "predict", "--data", crossed_csv,
            "--formula", "bmi ~ female * edu",
            "--at", "female=1", "--at", "edu=middle",
        )
        assert code == 0
        assert out == "24.69\n"

    def test_json_estimate(self, capsys, crossed_csv):
        code, out, _ = run_cli(
            capsys, "predict", "--data", crossed_csv,
            "--formula", "bmi ~ female * edu",
            "--at", "female=1", "--at", "edu=high", "--output", "json",
        )
        doc = json.loads(out)
        assert abs(doc["estimate"] - 23.87) < 1e-9
        assert doc["profile"] == {"female": "1", "edu": "high"}

    def test_json_writes_an_overflowed_estimate_as_null(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("y,x\n1e300,1\n2e300,2\n3.1e300,3\n3.9e300,4\n5e300,5\n")
        argv = ["predict", "--data", str(path), "--formula", "y ~ x", "--at", "x=1e10"]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "inf\n")
        code, out, _ = run_cli(capsys, *argv, "--output", "json")
        assert code == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        assert json.loads(out, parse_constant=reject)["estimate"] is None

    def test_incomplete_profile_is_data_error(self, capsys, crossed_csv):
        code, _, err = run_cli(
            capsys, "predict", "--data", crossed_csv,
            "--formula", "bmi ~ female * edu", "--at", "female=1",
        )
        assert code == 3 and "edu" in err

    def test_numeric_text_names_the_canonical_level(self, capsys, crossed_csv):
        outs = []
        for female in ("1", "1.0", "1e0"):
            code, out, err = run_cli(
                capsys, "predict", "--data", crossed_csv,
                "--formula", "bmi ~ cat(female) * edu",
                "--at", f"female={female}", "--at", "edu=high",
            )
            assert code == 0 and err == ""
            outs.append(out)
        assert outs == ["23.87\n"] * 3

    def test_log_of_a_nonpositive_profile_value(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,g,age\n1.5,a,20\n2.5,b,30\n3.0,a,40\n4.5,b,50\n")
        code, out, err = run_cli(
            capsys, "predict", "--data", str(path),
            "--formula", "y ~ g + log(age)", "--at", "g=a", "--at", "age=0",
        )
        assert (code, out) == (3, "")
        assert err == "error: log transform requires positive values (profile value)\n"

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "1_0", "1e500"])
    def test_non_number_is_data_error(self, capsys, crossed_csv, value):
        code, out, err = run_cli(
            capsys, "predict", "--data", crossed_csv,
            "--formula", "bmi ~ female * edu",
            "--at", f"female={value}", "--at", "edu=high",
        )
        assert (code, out) == (3, "")
        assert err == (f"error: profile value {value!r} for 'female'"
                       " is not a finite number\n")

    def test_at_variable_not_in_formula(self, capsys, crossed_csv):
        code, _, err = run_cli(
            capsys, "predict", "--data", crossed_csv,
            "--formula", "bmi ~ female", "--at", "edu=middle",
        )
        assert code == 2 and "edu" in err


class TestExitCodes:
    def test_formula_syntax_error(self, capsys, two_group_csv):
        code, _, err = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ + female"
        )
        assert code == 2 and err.startswith("error:")

    def test_empty_formula(self, capsys, two_group_csv):
        code, out, err = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "")
        assert (code, out) == (2, "")
        assert err == "error: syntax error at offset 0: expected response identifier\n"

    def test_refs_without_a_value(self, capsys, two_group_csv):
        code, out, err = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ female",
            "--refs", "g")
        assert (code, out) == (2, "")
        assert "expected NAME=VALUE, got 'g'" in err

    def test_illegal_character(self, capsys, two_group_csv):
        code, _, _ = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ fem@le"
        )
        assert code == 2

    def test_refs_not_in_formula(self, capsys, education_csv):
        code, _, err = run_cli(
            capsys, "fit", "--data", education_csv, "--formula", "bmi ~ edu",
            "--refs", "year=2005",
        )
        assert code == 2 and "year" in err

    # Checked before the CSV is read: the data path here does not exist.
    def test_refs_naming_a_variable_twice(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "fit", "--data", str(tmp_path / "nope.csv"),
            "--formula", "y ~ g + x", "--refs", "g=zzz", "--refs", "g=b")
        assert (code, out) == (2, "")
        assert err == "error: --refs names variable 'g' more than once\n"

    # Also before the CSV is read, by the same rule for --at as for --refs.
    @pytest.mark.parametrize("subcommand, flags, message", [
        ("fit", ["--tail", "bogus"], "--tail must be 'two', 'less:LABEL', or "
                                     "'greater:LABEL', got 'bogus'"),
        ("relevel", ["--refs", "g=b", "--tail", "less:"], "--tail must be 'two', "
                    "'less:LABEL', or 'greater:LABEL', got 'less:'"),
        ("predict", ["--at", "g=a", "--at", "x=1", "--at", "g=b"],
         "--at names variable 'g' more than once"),
        ("predict", ["--at", "g=a", "--at", "z=1"], "--at variable 'z' is not in the formula"),
    ], ids=["tail", "relevel-tail", "at-twice", "at-unknown"])
    def test_flags_are_checked_before_the_data(self, capsys, tmp_path, subcommand,
                                               flags, message):
        code, out, err = run_cli(
            capsys, subcommand, "--data", str(tmp_path / "nope.csv"),
            "--formula", "y ~ g + x", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("places", ["-1", "two"])
    def test_bad_rounding(self, capsys, two_group_csv, places):
        code, out, err = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ female",
            "--rounding", places)
        assert (code, out) == (2, "")
        assert "--rounding" in err

    def test_bad_tail_spec(self, capsys, two_group_csv):
        code, _, _ = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ female",
            "--tail", "sideways",
        )
        assert code == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "fit", "--data", str(tmp_path / "nope.csv"),
            "--formula", "bmi ~ female",
        )
        assert code == 3

    def test_unknown_variable(self, capsys, two_group_csv):
        code, _, err = run_cli(
            capsys, "fit", "--data", two_group_csv, "--formula", "bmi ~ height"
        )
        assert code == 3 and "height" in err

    def test_unknown_reference_level(self, capsys, education_csv):
        code, _, _ = run_cli(
            capsys, "fit", "--data", education_csv, "--formula", "bmi ~ edu",
            "--refs", "edu=phd",
        )
        assert code == 3

    # A variable used as a number takes no reference level, whether or
    # not the level names one of its values.
    @pytest.mark.parametrize("level", ["2", "999"])
    def test_refs_on_a_number_used_as_a_number(self, capsys, tmp_path, level):
        path = tmp_path / "data.csv"
        path.write_text("y,g,x\n1.5,a,1\n2.5,b,2\n3.0,a,3\n4.5,b,1\n5.0,a,2\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ g + x",
            "--refs", f"x={level}")
        assert (code, out, err) == (3, "", "error: variable 'x' is not categorical\n")

    def test_response_error_before_unknown_reference_level(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,g\nlow,a\nhigh,b\nlow,a\nhigh,b\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ g",
            "--refs", "g=zzz")
        assert (code, out, err) == (3, "", "error: response 'y' is not numeric\n")

    def test_rank_deficiency(self, capsys, tmp_path):
        lines = ["d0,d1,d2,y"]
        rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] * 3
        for i, (a, b, c) in enumerate(rows):
            lines.append(f"{a},{b},{c},{float(i)}")
        path = tmp_path / "trap.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ d0 + d1 + d2"
        )
        assert code == 3 and "d2" in err

    @pytest.mark.parametrize("name", ["y", "x"])
    def test_infinite_value(self, capsys, tmp_path, name):
        rows = [{"y": "1.5", "x": "1"}, {"y": "2.5", "x": "2"},
                {"y": "3.0", "x": "3"}, {"y": "4.5", "x": "4"}]
        rows[2][name] = "1e500"
        path = tmp_path / "overflow.csv"
        path.write_text("y,x\n" + "".join(f"{r['y']},{r['x']}\n" for r in rows))
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ x")
        assert (code, out) == (3, "")
        assert err == f"error: variable {name!r} has a non-finite value (line 4)\n"

    def test_finite_response_whose_sum_overflows(self, capsys, tmp_path):
        # Every value is finite; the sum of the three a rows is not.
        path = tmp_path / "huge.csv"
        path.write_text("y,g\n1e308,a\n1.5e308,a\n1e308,b\n-1e308,b\n1.2e308,a\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ g")
        assert (code, out) == (3, "")
        assert err == "error: the sum of response 'y' overflows; rescale it\n"

    def test_encode_reports_a_response_whose_sum_overflows(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("y,g\n1e308,a\n1e308,b\n1e308,a\n1e308,b\n")
        code, out, err = run_cli(
            capsys, "encode", "--data", str(path), "--formula", "y ~ g")
        assert (code, out) == (3, "")
        assert err == "error: the sum of response 'y' overflows; rescale it\n"

    @pytest.mark.parametrize("subcommand", ["fit", "encode"])
    def test_unknown_reference_level_before_a_non_finite_response(
            self, capsys, tmp_path, subcommand):
        path = tmp_path / "data.csv"
        path.write_text("y,g\n1.5,a\n2.5,b\n1e500,a\n4.5,b\n")
        code, out, err = run_cli(
            capsys, subcommand, "--data", str(path), "--formula", "y ~ g",
            "--refs", "g=zzz")
        assert (code, out, err) == (3, "", "error: 'zzz' is not a level of 'g'\n")

    # Each error names the CSV line its row starts on: not the row among
    # those kept after listwise deletion, and counting each line of a
    # quoted cell that holds a line break.
    DATA_LINE_CASES = {
        "response": ("y,g\n1.5,a\n2.5,b\n1e500,a\n4.5,b\n", "y ~ g",
                     "variable 'y' has a non-finite value (line 4)"),
        "after_a_dropped_row": (
            "y,g,x\n1.5,a,1\n2.5,b,NA\n3.0,a,0\n4.5,b,2\n5.0,a,3\n",
            "y ~ g + log(x)", "log transform requires positive values (line 4)"),
        "after_a_quoted_line_break": (
            'y,g,x\n1.5,"a\nb",1\n2.5,b,NA\n3.0,a,0\n4.5,b,2\n5.0,a,3\n',
            "y ~ g + log(x)", "log transform requires positive values (line 5)"),
        "infinite_predictor": (
            'y,g,x\n1.5,"a\nb",1\n2.5,b,NA\n3.0,a,2\n4.5,b,-1e500\n5.0,a,3\n',
            "y ~ g + x", "variable 'x' has a non-finite value (line 6)"),
    }

    @pytest.mark.parametrize("subcommand", ["fit", "encode"])
    @pytest.mark.parametrize("case", sorted(DATA_LINE_CASES))
    def test_data_error_names_the_csv_line(self, capsys, tmp_path, subcommand, case):
        text, formula, message = self.DATA_LINE_CASES[case]
        path = tmp_path / "data.csv"
        path.write_text(text, newline="")
        code, out, err = run_cli(
            capsys, subcommand, "--data", str(path), "--formula", formula)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @needs_dev_stdin
    @pytest.mark.parametrize("case", sorted(DATA_LINE_CASES))
    def test_piped_data_error_names_the_csv_line(self, case):
        # A pipe reads once; the line is counted in the bytes kept.
        text, formula, message = self.DATA_LINE_CASES[case]
        proc = run_piped(text, "fit", "--formula", formula)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) \
            == (3, b"", f"error: {message}\n")

    def test_undecodable_csv(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"bmi,g\n1.5,a\n2.5,caf\xe9\n3.0,b\n")
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "bmi ~ g")
        assert (code, out) == (3, "")
        assert err == "error: malformed CSV at line 3: byte 0xe9 is not UTF-8\n"

    def test_ragged_csv(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,y\n1,2\n3\n")
        code, _, _ = run_cli(
            capsys, "fit", "--data", str(path), "--formula", "y ~ a"
        )
        assert code == 3


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("ok: ") for line in lines)
        assert "FAIL" not in out
