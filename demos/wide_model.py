"""A wider model: two interaction blocks plus controls.

Crosses a 0/1 predictor with two categoricals and adds a categorical
control and a centered log-transformed numeric control. Shows how the
formula expands into labeled design columns and prints the sectioned
coefficient table.
"""

import numpy as np

from dummyreg import (
    Cell,
    CellMeanSpec,
    Dataset,
    build_design,
    design_references,
    fit,
    numeric_column,
    parse_formula,
    render_text,
    synthesize,
)

FORMULA = ("bmi ~ female * edu + female * cat(children) + cat(year) "
           "+ center(log(age), at=log(18))")


def build_data() -> Dataset:
    rng = np.random.default_rng(42)
    cells = {}
    for f in ("0", "1"):
        for e in ("low", "middle", "high"):
            for c in ("0", "1", "2", "3", "4"):
                cells[(f, e, c)] = Cell(float(rng.normal(25.0, 1.2)), 4)
    spec = CellMeanSpec(
        {"female": ("0", "1"),
         "edu": ("low", "middle", "high"),
         "children": ("0", "1", "2", "3", "4")},
        cells,
        response="bmi",
    )
    base = synthesize(spec, spread=1.0)
    n = base.n_rows
    return Dataset({
        **base.columns,
        "year": numeric_column(np.tile([2001.0, 2005.0, 2011.0], n // 3)),
        "age": numeric_column(rng.uniform(18.0, 80.0, size=n)),
    })


def main() -> None:
    data = build_data()
    design = build_design(parse_formula(FORMULA), data)

    print(f"{design.n_cols} design columns:")
    for label in design.labels:
        print(f"  {label.text}")
    print()

    result = fit(design)
    print(render_text(result, refs=design_references(design)))
    print(f"R^2 = {result.r_squared:.4f}, "
          f"residual df = {result.df_residual}")


if __name__ == "__main__":
    main()
