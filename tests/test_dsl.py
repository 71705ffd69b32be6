import random
import re

import pytest

from lawson import (
    Cellular,
    CellularFiberBundle,
    Decomposition,
    FixedComponent,
    HilbertScheme,
    MAX_LITERAL,
    ParseError,
    Point,
    Product,
    ProjectiveSpace,
    Smoothness,
    SplitQuadric,
    Suspension,
    SymmetricProduct,
    Toric,
    Torus,
    VarietyExpr,
    evaluate,
    parse,
    render,
    validate,
)
from lawson.dsl import MAX_DEPTH

from astgen import random_expr, random_garbage


class TestParseAtoms:
    def test_point(self):
        assert parse("pt") == Point()

    def test_single_argument_heads(self):
        assert parse("P(3)") == ProjectiveSpace(3)
        assert parse("affine(2)") == parse(" affine ( 2 ) ")
        assert parse("torus(4)") == Torus(4)
        assert parse("quadric(2)") == SplitQuadric(2)

    def test_natlists(self):
        assert parse("cellular([0,1,1,2])") == Cellular((0, 1, 1, 2))
        assert parse("toric([1,3,3])") == Toric((1, 3, 3))
        assert parse("toric([1,4,4],smooth)") == Toric((1, 4, 4), Smoothness.SMOOTH)
        assert parse("toric([1,3,3],simplicial)") == Toric(
            (1, 3, 3), Smoothness.SIMPLICIAL
        )
        assert parse("toric([1,0,5],general)") == Toric((1, 0, 5), Smoothness.GENERAL)

    def test_syntax_accepts_what_validation_rejects(self):
        # d_0 = 2 is a semantic error, not a syntax error.
        assert parse("toric([2,3,3],smooth)") == Toric((2, 3, 3), Smoothness.SMOOTH)
        assert parse("P(0)") == ProjectiveSpace(0)

    def test_constructors(self):
        assert parse("susp(quadric(1))") == Suspension(SplitQuadric(1))
        assert parse("prod(pt,torus(2))") == Product(Point(), Torus(2))
        assert parse("bundle(P(1),[0,1])") == CellularFiberBundle(
            ProjectiveSpace(1), (0, 1)
        )
        assert parse("sp(P(1),4)") == SymmetricProduct(ProjectiveSpace(1), 4)
        assert parse("hilb(1,2)") == HilbertScheme(1, 2)
        assert parse("singquadric(3,2)").m == 3

    def test_decomp(self):
        expr = parse("decomp(P(2):0, pt:3)")
        assert expr == Decomposition(
            (FixedComponent(ProjectiveSpace(2), 0), FixedComponent(Point(), 3))
        )

    def test_whitespace_insensitive(self):
        spaced = parse(" decomp ( P ( 2 ) : 0 ,\n\t pt : 3 ) ")
        assert spaced == parse("decomp(P(2):0,pt:3)")

    def test_deep_nesting(self):
        expr = parse("prod(susp(susp(pt)),bundle(toric([1,3,3]),[0,0,2]))")
        assert isinstance(expr, Product)
        assert expr.left == Suspension(Suspension(Point()))
        assert expr.right == CellularFiberBundle(Toric((1, 3, 3)), (0, 0, 2))


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse("")
        assert exc.value.span.start == 0
        assert "pt" in exc.value.expected

    def test_unknown_head(self):
        with pytest.raises(ParseError, match="unknown variety constructor"):
            parse("blowup(2)")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing") as exc:
            parse("pt pt")
        assert exc.value.span.start == 3

    def test_missing_close_paren(self):
        with pytest.raises(ParseError, match="'\\)'"):
            parse("P(3")

    def test_expected_number(self):
        with pytest.raises(ParseError) as exc:
            parse("P(x)")
        assert exc.value.expected == ("number",)

    def test_negative_numbers_are_not_nats(self):
        with pytest.raises(ParseError):
            parse("P(-1)")

    def test_sanity_bound(self):
        assert parse("P(1000000)") == ProjectiveSpace(MAX_LITERAL)
        with pytest.raises(ParseError, match="sanity bound"):
            parse("P(1000001)")

    def test_bad_flag(self):
        with pytest.raises(ParseError) as exc:
            parse("toric([1,3,3],curvy)")
        assert exc.value.expected == ("smooth", "simplicial", "general")

    def test_empty_natlist(self):
        with pytest.raises(ParseError):
            parse("cellular([])")

    def test_missing_component_shift(self):
        with pytest.raises(ParseError, match="':'"):
            parse("decomp(pt)")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse("pt;")
        assert (exc.value.span.start, exc.value.span.end) == (2, 3)

    def test_non_decimal_digit_is_a_parse_error(self):
        # A superscript two is a digit to str.isdigit but not a decimal.
        for text in ("P(²)", "P(1²)"):
            with pytest.raises(ParseError, match="unexpected character") as exc:
                parse(text)
            assert exc.value.span.end == len(text) - 1

    def test_bytes_input_is_decoded_not_crashed(self):
        assert parse(b"pt") == Point()
        with pytest.raises(ParseError):
            parse(b"\xff\xfe\x00")

    def test_str_of_error_mentions_span(self):
        try:
            parse("P(3")
        except ParseError as exc:
            assert "3..3" in str(exc)
        else:
            pytest.fail("expected a ParseError")


def _chain(depth: int) -> str:
    # prod, bundle and decomp in turn around a point: dimension 0 throughout.
    forms = ("prod({},pt)", "bundle({},[0])", "decomp({}:0)")
    text = "pt"
    for level in range(depth):
        text = forms[level % 3].format(text)
    return text


class TestNestingBound:
    def test_bound_depth_is_answered(self):
        text = _chain(MAX_DEPTH)
        expr = parse(text)
        assert validate(expr).dim == 0
        assert dict(evaluate(expr).table.ranks) == {(0, 0): 1}
        assert render(expr) == text

    def test_one_level_more_is_rejected_at_the_first_constructor_past_it(self):
        text = _chain(MAX_DEPTH + 1)
        with pytest.raises(ParseError, match="nest deeper") as exc:
            parse(text)
        opener = list(re.finditer(r"prod|bundle|decomp", text))[MAX_DEPTH]
        span = exc.value.span
        assert (span.start, span.end) == (opener.start(), opener.end())

    def test_atoms_with_arguments_do_not_count(self):
        text = "susp(" * MAX_DEPTH + "P(1)" + ")" * MAX_DEPTH
        assert render(parse(text)) == text

    def test_runaway_nesting_is_a_parse_error(self):
        for text in ("susp(" * 1200 + "pt" + ")" * 1200, "susp(" * 5000):
            with pytest.raises(ParseError):
                parse(text)


class TestRoundTrip:
    def test_random_expressions_round_trip(self):
        rng = random.Random(1105)
        for _ in range(500):
            expr = random_expr(rng)
            assert parse(render(expr)) == expr

    def test_spec_like_examples_round_trip(self):
        for text in (
            "pt",
            "P(4)",
            "susp(quadric(1))",
            "decomp(P(2):0, pt:3)",
            "bundle(prod(P(1),P(1)),[0,2,2])",
            "sp(cellular([0,1,1,2]),3)",
            "toric([1,4,6,4],simplicial)",
        ):
            assert render(parse(text)) == text


class TestGarbage:
    def test_garbage_never_raises_anything_else(self):
        rng = random.Random(20210923)
        parsed = 0
        rejected = 0
        for _ in range(2000):
            text = random_garbage(rng)
            try:
                expr = parse(text)
            except ParseError as exc:
                rejected += 1
                assert 0 <= exc.span.start <= exc.span.end <= len(text)
            else:
                parsed += 1
                assert isinstance(expr, VarietyExpr)
        # The corpus is adversarial, so almost everything is rejected, but
        # the mutation style occasionally repairs into valid text.
        assert rejected > parsed
