"""Dummy-by-dummy interactions and what their coefficients mean.

In a fully crossed model the interaction coefficients are differences
of differences: how much the group gap itself shifts across levels of
the second factor. linear_combination() turns coefficient sums back
into plain cell-mean gaps, and predict_mean() recovers cell means.
"""

from dummyreg import (
    Cell,
    CellMeanSpec,
    build_design,
    design_references,
    fit,
    linear_combination,
    parse_formula,
    predict_mean,
    render_text,
    synthesize,
)

SPEC = CellMeanSpec(
    {"female": ("0", "1"), "edu": ("low", "middle", "high")},
    {("0", "low"): Cell(26.07, 20), ("0", "middle"): Cell(25.25, 20),
     ("0", "high"): Cell(24.70, 20), ("1", "low"): Cell(26.16, 20),
     ("1", "middle"): Cell(24.69, 20), ("1", "high"): Cell(23.87, 20)},
    response="bmi",
)


def main() -> None:
    data = synthesize(SPEC, spread=1.1)
    design = build_design(parse_formula("bmi ~ female * edu"), data,
                          refs={"edu": "low"})
    result = fit(design)
    print(render_text(result, refs=design_references(design)))

    # group gap at each education level: slope plus that interaction term
    gap_low = linear_combination(result, [0, 1, 0, 0, 0, 0])
    gap_mid = linear_combination(result, [0, 1, 0, 0, 1, 0])
    gap_high = linear_combination(result, [0, 1, 0, 0, 0, 1])
    print(f"gap at low:    {gap_low.estimate:+.2f} (se {gap_low.stderr:.2f})")
    print(f"gap at middle: {gap_mid.estimate:+.2f} (se {gap_mid.stderr:.2f})")
    print(f"gap at high:   {gap_high.estimate:+.2f} (se {gap_high.stderr:.2f})")

    print()
    for female in ("0", "1"):
        for edu in ("low", "middle", "high"):
            mean = predict_mean(result, {"female": female, "edu": edu})
            print(f"predicted mean female={female} edu={edu:>6}: {mean:.2f}")


if __name__ == "__main__":
    main()
