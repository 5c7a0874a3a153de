"""Cell-mean synthesis: exact reconstruction and JSON round trips."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dummyreg
from dummyreg import (
    Cell,
    CellMeanSpec,
    build_design,
    cell_means,
    fit,
    parse_formula,
    spec_from_json,
    spec_to_json,
    synthesize,
)

from util import load_spec


class TestSynthesize:
    def test_two_group_rows(self):
        data = synthesize(load_spec("two_group_means.json"))
        y = data["bmi"].values
        female = data["female"].values
        assert sorted(y[female == 0.0]) == [24.23, 26.23]
        assert sorted(y[female == 1.0]) == [23.72, 25.72]

    def test_zero_spread_collapses_to_means(self):
        spec = CellMeanSpec(
            {"g": ("a", "b")}, {("a",): Cell(5.0, 4), ("b",): Cell(7.0, 2)}
        )
        data = synthesize(spec, spread=0.0)
        y = data["y"].values
        codes = data["g"].codes
        assert np.all(y[codes == 0] == 5.0)
        assert np.all(y[codes == 1] == 7.0)

    def test_odd_count_adds_center_row(self):
        spec = CellMeanSpec({"g": ("a",)}, {("a",): Cell(5.0, 3)})
        data = synthesize(spec, spread=1.0)
        assert sorted(data["y"].values) == [4.0, 5.0, 6.0]

    def test_negative_spread_rejected(self):
        spec = CellMeanSpec({"g": ("a",)}, {("a",): Cell(5.0, 2)})
        with pytest.raises(ValueError):
            synthesize(spec, spread=-1.0)

    def test_numeric_level_names_make_numeric_column(self):
        data = synthesize(load_spec("two_group_means.json"))
        assert data["female"].values.dtype == np.float64

    def test_word_level_names_make_pinned_categories(self):
        data = synthesize(load_spec("education_means.json"))
        assert data["edu"].levels == ("low", "middle", "high")

    def test_row_count(self):
        spec = load_spec("sex_by_education_means.json")
        assert synthesize(spec).n_rows == spec.n_rows == 24


class TestCellMeans:
    def test_round_trip_recovers_spec(self):
        spec = load_spec("sex_by_education_means.json")
        data = synthesize(spec, spread=0.3)
        means = cell_means(data, ("female", "edu"), response="bmi")
        assert set(means) == set(spec.cells)
        for key, cell in spec.cells.items():
            assert abs(means[key] - cell.mean) < 1e-12

    def test_spread_invariance_of_saturated_fit(self):
        spec = load_spec("sex_by_education_means.json")
        ast = parse_formula("bmi ~ female * edu")
        fits = []
        for spread in (0.1, 1.0, 7.5):
            data = synthesize(spec, spread=spread)
            fits.append(fit(build_design(ast, data)))
        base = fits[0].coefficients
        for other in fits[1:]:
            assert np.max(np.abs(other.coefficients - base)) < 1e-9

    def test_numeric_factor_keys_are_level_names(self):
        data = synthesize(load_spec("two_group_means.json"))
        means = cell_means(data, ("female",), response="bmi")
        assert set(means) == {("0",), ("1",)}


class TestJson:
    def test_round_trip_equality(self):
        spec = load_spec("sex_by_education_means.json")
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_stream_and_text_sources_agree(self):
        text = spec_to_json(load_spec("education_means.json"))
        assert spec_from_json(io.StringIO(text)) == spec_from_json(text)

    def test_document_shape(self):
        doc = json.loads(spec_to_json(load_spec("education_means.json")))
        assert set(doc) == {"response", "factors", "cells"}
        assert doc["factors"] == {"edu": ["low", "middle", "high"]}
        assert {"levels", "mean", "count"} == set(doc["cells"][0])


class TestValidation:
    def test_count_floor(self):
        with pytest.raises(ValueError):
            Cell(5.0, 1)

    def test_cell_key_arity(self):
        with pytest.raises(ValueError):
            CellMeanSpec({"a": ("x",), "b": ("y",)}, {("x",): Cell(5.0, 2)})

    def test_unknown_cell_level(self):
        with pytest.raises(ValueError):
            CellMeanSpec({"a": ("x",)}, {("z",): Cell(5.0, 2)})

    def test_empty_cells_rejected(self):
        with pytest.raises(ValueError):
            CellMeanSpec({"a": ("x",)}, {})

    def test_response_name_collision(self):
        with pytest.raises(ValueError):
            CellMeanSpec({"g": ("a",)}, {("a",): Cell(5.0, 2)}, response="g")


class TestImport:
    def test_package_import_leaves_quadrature_unloaded(self):
        # No runtime path needs scipy: the quadrature oracle integrates
        # with numpy alone, so importing the package loads no scipy.integrate.
        src = str(Path(dummyreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, dummyreg; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_oracle_unloaded(self):
        # Only selftest needs the oracle; the CLI imports it there.
        src = str(Path(dummyreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, dummyreg.cli; print('dummyreg.oracle' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_unloaded(self):
        # A fit needs only numpy; scipy serves the selftest oracle.
        src = str(Path(dummyreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, dummyreg.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestWithoutScipy:
    """The oracle and selftest run when scipy cannot be imported."""

    BLOCK = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
    )

    def _run(self, code):
        src = str(Path(dummyreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", self.BLOCK + code], env=env,
                              capture_output=True, text=True)

    def test_block_holds(self):
        proc = self._run("import scipy")
        assert proc.returncode != 0 and "scipy is blocked" in proc.stderr

    def test_selftest(self):
        proc = self._run("import runpy\n"
                         "sys.argv = ['dummyreg', 'selftest']\n"
                         "runpy.run_module('dummyreg.cli', run_name='__main__')\n")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert sum(line.startswith("ok:") for line in lines) == 6, proc.stdout

    def test_t_cdf_error_on_acceptance_grid(self):
        proc = self._run(
            "import numpy as np\n"
            "from dummyreg import oracle\n"
            "print(oracle.t_cdf_error((1, 2, 5, 10, 30, 100, 1000),\n"
            "                         np.arange(-5.0, 5.0 + 1e-9, 0.25)))\n")
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 1e-8
