import re
from fractions import Fraction

import pytest

from soficdim.calculator import (
    EvalError,
    ParseError,
    SExpression,
    evaluate_s,
    parse_expr,
)
from soficdim.groupoid import transitive_groupoid
from soficdim.rng import SplitMix64


def ev(text):
    return evaluate_s(parse_expr(text)).value


class TestParse:
    def test_amalgam_tree(self):
        e = parse_expr("amalgam(cyclic(2), cyclic(3), trivial)")
        assert e.kind == "amalgam"
        assert [c.kind for c in e.children] == ["cyclic", "cyclic", "trivial"]

    def test_corner_tree(self):
        e = parse_expr("corner(transitive(4), 1/2)")
        assert e.kind == "corner" and e.number == Fraction(1, 2)

    def test_corner_zero_mass_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("corner(z, 0)")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("amalgam(cyclic(2), cyclic(3)")
        assert exc.value.position >= 20

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("trivial extra")

    def test_whitespace_tolerated(self):
        assert ev(" amalgam( cyclic( 2 ) , cyclic( 3 ) , trivial ) ") == Fraction(7, 6)

    @pytest.mark.parametrize("text,message,position", [
        ("cyclic(0)", "cyclic needs a positive order", 8),
        ("transitive(0)", "transitive needs a positive order", 12),
        ("amenable(3/2)", "finite part must lie in [0, 1]", 12),
        ("corner(z, 0)", "corner mass must lie in (0, 1]", 11),
        ("bernoulli(z, 0)", "alphabet size must be >= 1", 14),
        ("finite_groupoid(x)", "finite_groupoid needs a quoted path", 17),
        ("foo(1)", "unknown form 'foo'", 3),
        ("trivial extra", "trailing input 'extra'", 7),
        ("trivial()", "trailing input '('", 7),
        ("", "unexpected end of input", 0),
        ("cyclic(2", "unexpected end of input", 8),
        ("cyclic()", "expected an integer, got ')'", 8),
        ("corner(z 1/2)", "expected ',', got '1'", 10),
        ("amenable(1/0)", "zero denominator", 12),
    ])
    def test_error_message_and_position(self, text, message, position):
        # the position is where the parser stood: after the offending token
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position


class TestEvaluate:
    def test_trivial_group(self):
        assert ev("trivial") == 0

    def test_cyclic(self):
        for m in (1, 2, 3, 7):
            assert ev(f"cyclic({m})") == 1 - Fraction(1, m)

    def test_integers_have_value_one(self):
        assert ev("z") == 1

    def test_amalgam_of_cyclics(self):
        assert ev("amalgam(cyclic(2), cyclic(3), trivial)") == Fraction(7, 6)

    def test_corner_consistency_with_transitive(self):
        assert ev("corner(transitive(4), 1/2)") == ev("transitive(2)") == Fraction(1, 2)

    def test_bernoulli_neutrality(self):
        base = ev("cyclic(2)")
        for q in range(2, 8):
            assert ev(f"bernoulli(cyclic(2), {q})") == base

    def test_amenable_atom(self):
        assert ev("amenable(1/3)") == Fraction(2, 3)

    def test_finite_groupoid_file(self, tmp_path):
        path = tmp_path / "r3.gpd"
        transitive_groupoid(3).save(path)
        assert ev(f'finite_groupoid("{path}")') == Fraction(2, 3)

    def test_amalgam_requires_amenable_third(self):
        bad = parse_expr(
            "amalgam(cyclic(2), cyclic(2), amalgam(cyclic(2), cyclic(2), trivial))")
        with pytest.raises(EvalError):
            evaluate_s(bad)

    @pytest.mark.parametrize("third,factor,embeds", [
        ("trivial", "z", True), ("trivial", "amenable(1/2)", True),
        ("cyclic(1)", "z", True), ("cyclic(2)", "cyclic(6)", True),
        ("cyclic(6)", "cyclic(6)", True), ("z", "z", True),
        ("cyclic(5)", "cyclic(4)", False), ("cyclic(4)", "cyclic(2)", False),
        ("z", "cyclic(3)", False), ("z", "trivial", False),
        ("cyclic(3)", "z", False), ("cyclic(2)", "trivial", False),
        ("cyclic(2)", "transitive(2)", None), ("z", "amenable(0)", None),
        ("amenable(1)", "cyclic(2)", None)])
    def test_amalgam_embedding(self, third, factor, embeds):
        # a decided non-embedding is refused, an undecided one ledgered
        line = f"embedding: {third} in {factor} (user-asserted)"
        text = f"amalgam({factor}, {factor}, {third})"
        if embeds is False:
            with pytest.raises(EvalError,
                               match=re.escape(f"{third} does not embed in {factor}")):
                evaluate_s(parse_expr(text))
        else:
            ledger = evaluate_s(parse_expr(text)).assumptions
            assert ledger.count(line) == (2 if embeds is None else 0)

    def test_weighted_amalgam(self):
        # two amenable factors with base weights 2/3 each over a weight-1/3
        # common part: w1 + w2 - w3 = 1
        e1 = parse_expr("amenable(1/4)").with_weight(Fraction(2, 3))
        e2 = parse_expr("amenable(1/2)").with_weight(Fraction(2, 3))
        e3 = parse_expr("trivial").with_weight(Fraction(1, 3))
        out = evaluate_s(SExpression("amalgam", (e1, e2, e3)))
        assert out.value == (Fraction(2, 3) * Fraction(3, 4)
                             + Fraction(2, 3) * Fraction(1, 2)
                             - Fraction(1, 3) * 0)

    def test_weight_identity_enforced(self):
        e1 = parse_expr("trivial").with_weight(Fraction(1, 2))
        e2 = parse_expr("trivial").with_weight(Fraction(1, 2))
        e3 = parse_expr("trivial")
        with pytest.raises(EvalError):
            evaluate_s(SExpression("amalgam", (e1, e2, e3)))

    def test_full_weight_additivity(self):
        # both factors amenable with full base weights and trivial joint:
        # the value is 2 - a - b
        for a, b in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(1, 5))):
            out = ev(f"amalgam(amenable({a}), amenable({b}), trivial)")
            assert out == 2 - a - b


class TestLedger:
    def test_atoms_carry_tags_only(self):
        out = evaluate_s(parse_expr("cyclic(5)"))
        assert any(a.startswith("amenable:") for a in out.assumptions)
        assert any(a.startswith("s-regular:") for a in out.assumptions)

    def test_combinators_always_add_entries(self):
        for text in ("corner(cyclic(2), 1/2)", "bernoulli(trivial, 3)",
                     "amalgam(cyclic(2), cyclic(3), trivial)"):
            out = evaluate_s(parse_expr(text))
            atom_only = evaluate_s(parse_expr("trivial")).assumptions
            assert len(out.assumptions) > len(atom_only) - 1
            assert out.assumptions

    def test_json_shape(self):
        out = evaluate_s(parse_expr("amalgam(cyclic(2), cyclic(3), trivial)"))
        d = out.to_json_dict()
        assert d["value_num"] == 7 and d["value_den"] == 6
        assert isinstance(d["assumptions"], list) and d["assumptions"]


def random_expression(rng: SplitMix64, depth=0) -> str:
    roll = rng.below(8)
    if depth >= 3 or roll < 3:
        return ("trivial", "z", f"cyclic({rng.below(5) + 1})",
                f"transitive({rng.below(4) + 1})",
                f"amenable({rng.below(4)}/4)")[rng.below(5)]
    if roll < 5:
        return (f"corner({random_expression(rng, depth + 1)}, "
                f"{rng.below(4) + 1}/4)")
    if roll < 6:
        return f"bernoulli({random_expression(rng, depth + 1)}, {rng.below(6) + 2})"
    return (f"amalgam({random_expression(rng, depth + 1)}, "
            f"{random_expression(rng, depth + 1)}, trivial)")


class TestAlgebraicIdentities:
    def test_corner_composition_on_random_trees(self):
        rng = SplitMix64(2024)
        checked = 0
        while checked < 100:
            text = random_expression(rng)
            a = Fraction(rng.below(4) + 1, 4)
            b = Fraction(rng.below(4) + 1, 4)
            nested = ev(f"corner(corner({text}, {a}), {b})")
            flat = ev(f"corner({text}, {a * b})")
            assert nested == flat
            checked += 1

    def test_describe_is_a_parse_fixed_point(self):
        rng = SplitMix64(7)
        for _ in range(200):
            e = parse_expr(random_expression(rng))
            again = parse_expr(e.describe())
            assert again.describe() == e.describe()
            assert evaluate_s(again) == evaluate_s(e)

    @pytest.mark.parametrize("text", ['finite_groupoid("r3.gpd")',
                                      'corner(finite_groupoid("a b.gpd"), 1/2)'])
    def test_groupoid_file_description_parses_back(self, text):
        e = parse_expr(text)
        assert e.describe() == text
        assert parse_expr(e.describe()) == e

    def test_values_nonnegative_on_atoms(self):
        for text in ("trivial", "z", "cyclic(3)", "transitive(5)", "amenable(1/7)"):
            assert ev(text) >= 0
