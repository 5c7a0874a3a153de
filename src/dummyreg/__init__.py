"""Formula-driven OLS with contrast coding for categorical predictors.

Typical use::

    from dummyreg import parse_formula, read_csv, build_design, fit

    data = read_csv("bmi.csv")
    design = build_design(parse_formula("bmi ~ female * edu"), data,
                          refs={"edu": "low"})
    result = fit(design)
"""

from .dataset import (
    CategoricalColumn,
    ColumnSchema,
    Dataset,
    NumericColumn,
    Schema,
    categorical_column,
    levels,
    listwise_delete,
    numeric_column,
    read_csv,
    read_csv_text,
)
from .encode import (
    CategoricalInfo,
    ColumnLabel,
    DesignInfo,
    DesignMatrix,
    apply_transform,
    build_design,
    design_references,
    profile_row,
    relevel,
    simple_labels,
)
from .errors import DummyregError
from .formula import (
    ConstExpr,
    FormulaAst,
    Term,
    VarRef,
    parse,
    parse_formula,
    tokenize,
    unparse,
)
from .report import format_p, format_value, render_json, render_text
from .solve import (
    FitResult,
    LinearCombination,
    fit,
    linear_combination,
    one_tailed_p,
    predict_mean,
    student_t_cdf,
)

__version__ = "0.1.0"

# The oracle is verification tooling that the fit pipeline never calls,
# so its names are served on first access (PEP 562) and importing
# dummyreg or dummyreg.cli does not load it.
_ORACLE_NAMES = frozenset({
    "Cell",
    "CellMeanSpec",
    "cell_means",
    "spec_from_json",
    "spec_to_json",
    "synthesize",
    "t_cdf_quadrature",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CategoricalColumn",
    "CategoricalInfo",
    "Cell",
    "CellMeanSpec",
    "ColumnLabel",
    "ColumnSchema",
    "ConstExpr",
    "Dataset",
    "DesignInfo",
    "DesignMatrix",
    "DummyregError",
    "FitResult",
    "FormulaAst",
    "LinearCombination",
    "NumericColumn",
    "Schema",
    "Term",
    "VarRef",
    "apply_transform",
    "build_design",
    "categorical_column",
    "cell_means",
    "design_references",
    "fit",
    "format_p",
    "format_value",
    "levels",
    "linear_combination",
    "listwise_delete",
    "numeric_column",
    "one_tailed_p",
    "parse",
    "parse_formula",
    "predict_mean",
    "profile_row",
    "read_csv",
    "read_csv_text",
    "relevel",
    "render_json",
    "render_text",
    "simple_labels",
    "spec_from_json",
    "spec_to_json",
    "student_t_cdf",
    "synthesize",
    "t_cdf_quadrature",
    "tokenize",
    "unparse",
]
