"""Formula DSL: tokenizer, parser, crossing expansion, round trip."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dummyreg import ConstExpr, Term, VarRef, parse_formula, tokenize, unparse
from dummyreg.errors import FormulaSyntaxError, IllegalCharacter, UnknownFunction
from dummyreg.formula import INTERCEPT, format_term


def term_names(ast):
    return [format_term(t) for t in ast.terms]


class TestTokenize:
    def test_simple(self):
        kinds = [t.kind for t in tokenize("bmi ~ female")]
        assert kinds == ["ident", "~", "ident"]

    def test_star(self):
        toks = tokenize("y ~ a*b")
        assert [t.kind for t in toks] == ["ident", "~", "ident", "*", "ident"]
        assert [t.text for t in toks] == ["y", "~", "a", "*", "b"]

    def test_illegal_character_position(self):
        with pytest.raises(IllegalCharacter) as exc:
            tokenize("y ~ @a")
        assert exc.value.position == 4
        assert exc.value.character == "@"

    def test_whitespace_insensitive(self):
        assert [t.kind for t in tokenize("y~a")] == [t.kind for t in tokenize(" y ~ a ")]

    def test_string_and_punctuation(self):
        toks = tokenize('cat(edu, ref="low")')
        assert [t.kind for t in toks] == ["ident", "(", "ident", ",", "ident",
                                          "=", "string", ")"]

    def test_number_forms(self):
        for text in ("0", "18", "2.89", ".5", "1e-07", "3E+4"):
            (tok,) = tokenize(text)
            assert tok.kind == "number"

    def test_positions_are_offsets(self):
        toks = tokenize("y ~ abc")
        assert [t.pos for t in toks] == [0, 2, 4]


class TestParse:
    def test_main_effect(self):
        ast = parse_formula("bmi ~ female")
        assert ast.response == "bmi"
        assert ast.terms == (INTERCEPT, Term((VarRef("female"),)))
        assert ast.intercept

    def test_star_expands_to_mains_and_product(self):
        ast = parse_formula("bmi ~ female * edu")
        assert term_names(ast) == ["(intercept)", "female", "edu", "female:edu"]

    def test_colon_is_product_only(self):
        ast = parse_formula("y ~ a:b")
        assert term_names(ast) == ["(intercept)", "a:b"]

    def test_triple_star_seven_terms(self):
        ast = parse_formula("y ~ a*b*c")
        non_intercept = [t for t in ast.terms if t != INTERCEPT]
        assert len(non_intercept) == 7
        assert set(term_names(ast)) == {
            "(intercept)", "a", "b", "c", "a:b", "a:c", "b:c", "a:b:c",
        }

    def test_star_commutes_as_a_set(self):
        left = parse_formula("y ~ a*b")
        right = parse_formula("y ~ b*a")
        as_sets = lambda ast: {frozenset(t.factors) for t in ast.terms}
        assert as_sets(left) == as_sets(right)

    def test_interaction_order_normalized(self):
        ast = parse_formula("y ~ a:b + b:a")
        assert term_names(ast) == ["(intercept)", "a:b"]

    def test_duplicate_terms_merged(self):
        ast = parse_formula("y ~ a + a + a*b")
        assert term_names(ast) == ["(intercept)", "a", "b", "a:b"]

    def test_transforms(self):
        ast = parse_formula('bmi ~ cat(children, ref="0") + center(log(age), at=log(18))')
        children, age = ast.terms[1].factors[0], ast.terms[2].factors[0]
        assert children == VarRef("children", categorical=True, ref_level="0")
        assert age.log and age.center == ConstExpr(18.0, logged=True)
        assert age.center.value == pytest.approx(math.log(18.0))

    def test_center_at_number(self):
        ast = parse_formula("y ~ center(x, at=2.89)")
        ref = ast.terms[1].factors[0]
        assert not ref.log and ref.center == ConstExpr(2.89)

    def test_cat_scheme_override(self):
        ast = parse_formula('y ~ cat(g, ref="b", scheme="effect")')
        ref = ast.terms[1].factors[0]
        assert ref.categorical and ref.ref_level == "b" and ref.scheme == "effect"

    def test_zero_prefix_suppresses_intercept_flag(self):
        ast = parse_formula("y ~ 0 + x")
        assert not ast.intercept
        assert term_names(ast) == ["x"]

    def test_response_among_predictors_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("y ~ y")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("y ~ a + a:y")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction) as exc:
            parse_formula("y ~ poly(x)")
        assert exc.value.name == "poly"

    @pytest.mark.parametrize("source", [
        "y female",
        "y ~",
        "y ~ +",
        "y ~ a +",
        "~ a",
        "y ~ a b",
        "y ~ cat(x, ref=low)",
        "y ~ center(x)",
        "y ~ center(x, by=2)",
        "y ~ log(x",
        'y ~ cat(x, scheme="robust")',
        "y ~ 0 +",
        "y ~ log(2.5)",
        'y ~ cat(x, by="a")',
        "y ~ center(x, at=z)",
    ])
    def test_syntax_errors(self, source):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(source)

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("y ~ a b")
        assert exc.value.position == 6

    def test_empty_formula_fails_at_offset_zero(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("")
        assert exc.value.position == 0


names = st.sampled_from(["alpha", "beta", "gamma", "delta", "x1", "x2"])
consts = st.one_of(
    st.integers(min_value=0, max_value=999).map(str),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
)
levels_text = st.sampled_from(["low", "middle", "high", "a b", "0", "4.5"])
schemes_text = st.sampled_from(["treatment", "effect", "weighted"])


@st.composite
def factors(draw):
    name = draw(names)
    kind = draw(st.sampled_from(["bare", "log", "center", "cat"]))
    if kind == "bare":
        return name
    if kind == "log":
        return f"log({name})"
    if kind == "center":
        inner = draw(st.sampled_from([name, f"log({name})"]))
        at = draw(st.one_of(consts, st.integers(1, 99).map(lambda k: f"log({k})")))
        return f"center({inner}, at={at})"
    args = [name]
    if draw(st.booleans()):
        args.append(f'ref="{draw(levels_text)}"')
    if draw(st.booleans()):
        args.append(f'scheme="{draw(schemes_text)}"')
    return "cat(" + ", ".join(args) + ")"


@st.composite
def formulas(draw):
    n_terms = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        n_factors = draw(st.integers(1, 3))
        ops = draw(st.lists(st.sampled_from([":", "*"]),
                            min_size=n_factors - 1, max_size=n_factors - 1))
        parts = [draw(factors())]
        for op in ops:
            parts.append(op + draw(factors()))
        terms.append("".join(parts))
    prefix = "0 + " if draw(st.booleans()) else ""
    return "resp ~ " + prefix + " + ".join(terms)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_parse_print_parse_fixed_point(self, source):
        first = parse_formula(source)
        again = parse_formula(unparse(first))
        assert again == first

    def test_unparse_expanded_form(self):
        assert unparse(parse_formula("y~a*b")) == "y ~ a + b + a:b"
        assert unparse(parse_formula("y ~ 0 + a")) == "y ~ 0 + a"

    def test_unparse_keeps_log_constant_symbolic(self):
        text = unparse(parse_formula("y ~ center(log(age), at=log(18))"))
        assert text == "y ~ center(log(age), at=log(18))"
