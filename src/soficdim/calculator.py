"""Closed-form calculator for the dimension value of groupoid expressions.

Grammar (``FORMS`` lists each form that takes arguments, in order):

    expr     := trivial | z
              | cyclic(order) | transitive(order)   order: integer >= 1
              | amenable(part)                      part: rational in [0, 1]
              | finite_groupoid("path")
              | corner(expr, mass)                  mass: rational in (0, 1]
              | bernoulli(expr, q)                  q: integer >= 1
              | amalgam(expr, expr, expr)
    rational := int | int/int

Evaluation rules, all exact rationals:

* an amenable atom with finite part a evaluates to 1 - a (cyclic(m)
  has finite part 1/m, the integers 0, the transitive relation on d
  points 1/d, a groupoid file its unit-fiber sum);
* corner(e, h) solves the compression identity
  s(ambient) - 1 = h (s(corner) - 1) for the corner value;
* bernoulli(e, q) is value-neutral for every finite alphabet;
* amalgam(e1, e2, e3) = w1 s1 + w2 s2 - w3 s3 with the base weights
  carried as expression attributes (1 for groups) and w1 + w2 - w3 = 1
  enforced; the third factor must carry the amenable attribute and
  embed in both factors, which is decided among trivial, z and cyclic
  (see ``_embedding``) and ledgered as user-asserted otherwise.

Every rule application appends the hypotheses it consumes to the
assumption ledger of the returned value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .groupoid import finite_part_measure, load_pmp
from .scaling import scaling_value_inverse


class ParseError(ValueError):
    """Syntax or range error, carrying the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """A rewrite rule's hypothesis cannot be satisfied from the tags."""


ATOMS = ("trivial", "z", "cyclic", "transitive", "amenable", "finite_groupoid")

# the argument kinds of each form that takes arguments, in order: "expr",
# "path", or a number as (read as a rational, range test, message outside it)
_ORDER = (False, lambda m: m >= 1, "{} needs a positive order")
FORMS = {
    "cyclic": (_ORDER,),
    "transitive": (_ORDER,),
    "amenable": ((True, lambda a: 0 <= a <= 1, "finite part must lie in [0, 1]"),),
    "finite_groupoid": ("path",),
    "corner": ("expr", (True, lambda h: 0 < h <= 1, "corner mass must lie in (0, 1]")),
    "bernoulli": ("expr", (False, lambda q: q >= 1, "alphabet size must be >= 1")),
    "amalgam": ("expr", "expr", "expr"),
}


@dataclass(frozen=True)
class SExpression:
    """Expression tree node with its base weight attribute.

    ``children`` holds the node's expression arguments in order,
    ``number`` its number argument and ``text`` its path, as ``FORMS``
    lists them for the node's kind."""

    kind: str
    children: tuple = ()
    number: Fraction | int | None = None
    text: str | None = None
    base_weight: Fraction = Fraction(1)

    def with_weight(self, w) -> "SExpression":
        return SExpression(self.kind, self.children, self.number, self.text,
                           Fraction(w))

    def is_amenable(self) -> bool:
        """Amenability as carried by the tree tags.

        Atoms are amenable; corners and Bernoulli extensions preserve
        amenability; an amalgam is not tagged amenable.
        """
        if self.kind in ATOMS:
            return True
        if self.kind in ("corner", "bernoulli"):
            return self.children[0].is_amenable()
        return False

    def describe(self) -> str:
        args = [c.describe() for c in self.children]
        args += [str(self.number)] if self.number is not None else []
        args += [f'"{self.text}"'] if self.text is not None else []
        return f"{self.kind}({', '.join(args)})" if args else self.kind


@dataclass(frozen=True)
class SValue:
    """Exact value plus the ledger of consumed hypotheses."""

    value: Fraction
    assumptions: tuple

    def to_json_dict(self):
        return {
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
            "assumptions": list(self.assumptions),
        }


# -- parsing ----------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<name>[a-z_]+)|(?P<num>\d+)|(?P<punct>[(),/])"
                    r"|(?P<str>\"[^\"]*\")|(?P<bad>\S))")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def peek(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None or self.pos >= len(self.text):
            return None, None, self.pos
        return m.lastgroup, m.group(m.lastgroup), m.end()

    def next(self):
        kind, val, end = self.peek()
        if kind is None:
            self.error("unexpected end of input")
        if kind == "bad":
            self.error(f"unexpected character {val!r}")
        self.pos = end
        return kind, val

    def expect_punct(self, ch):
        kind, val = self.next()
        if kind != "punct" or val != ch:
            self.error(f"expected {ch!r}, got {val!r}")

    def parse_int(self) -> int:
        kind, val = self.next()
        if kind != "num":
            self.error(f"expected an integer, got {val!r}")
        return int(val)

    def parse_rational(self) -> Fraction:
        num = self.parse_int()
        kind, val, end = self.peek()
        if kind == "punct" and val == "/":
            self.pos = end
            den = self.parse_int()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_expr(self) -> SExpression:
        kind, name = self.next()
        if kind != "name":
            self.error(f"expected an expression, got {name!r}")
        if name in ("trivial", "z"):
            return SExpression(name)
        if name not in FORMS:
            self.error(f"unknown form {name!r}")
        self.expect_punct("(")
        children, number, text = [], None, None
        for i, arg in enumerate(FORMS[name]):
            if i:
                self.expect_punct(",")
            if arg == "expr":
                children.append(self.parse_expr())
            elif arg == "path":
                kind, val = self.next()
                if kind != "str":
                    self.error(f"{name} needs a quoted path")
                text = val[1:-1]
            else:
                rational, in_range, message = arg
                number = self.parse_rational() if rational else self.parse_int()
                if not in_range(number):
                    self.error(message.format(name))
        self.expect_punct(")")
        return SExpression(name, tuple(children), number, text)


def parse_expr(text: str) -> SExpression:
    parser = _Parser(text)
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression is nested too deeply", parser.pos) from None
    kind, val, _ = parser.peek()
    if kind is not None:
        parser.error(f"trailing input {val!r}")
    return expr


# -- evaluation -------------------------------------------------------------------


def _finite_part(e: SExpression) -> Fraction:
    if e.kind == "trivial":
        return Fraction(1)
    if e.kind == "z":
        return Fraction(0)
    if e.kind in ("cyclic", "transitive"):
        return Fraction(1, e.number)
    if e.kind == "amenable":
        return Fraction(e.number)
    if e.kind == "finite_groupoid":
        return finite_part_measure(load_pmp(e.text))
    raise EvalError(f"{e.kind} has no finite part")


def _embedding(sub: SExpression, group: SExpression) -> list[str]:
    """The ledger lines of ``sub`` embedding in ``group`` as a subgroup:
    none where that is decided, one user-asserted line where it is not.
    Raises EvalError where it is decided false.

    trivial embeds in every group.  Among trivial, z and cyclic(m), of
    orders 1, 0 (standing for infinite) and m: cyclic(k) embeds in
    cyclic(m) iff k | m, z embeds in z only, and z holds no nontrivial
    finite subgroup.
    """
    k, m = ({"trivial": 1, "z": 0, "cyclic": e.number}.get(e.kind) for e in (sub, group))
    if k == 1 or k == m == 0 or (k and m and m % k == 0):
        return []
    if None in (k, m):
        return [f"embedding: {sub.describe()} in {group.describe()} (user-asserted)"]
    raise EvalError(f"amalgam third factor {sub.describe()} does not embed "
                    f"in {group.describe()}")


def evaluate_s(e: SExpression) -> SValue:
    """Exact dimension value with the assumption ledger."""
    ledger: list[str] = []

    def walk(node: SExpression) -> Fraction:
        if node.kind in ATOMS:
            fp = _finite_part(node)
            ledger.append(f"amenable: {node.describe()} evaluates by the "
                          f"closed form 1 - {fp}")
            ledger.append(f"s-regular: {node.describe()} (assumed per "
                          "coincidence of limsup/liminf formulas for "
                          "amenable models)")
            return 1 - fp
        if node.kind == "corner":
            inner = walk(node.children[0])
            ledger.append(f"ergodic: {node.children[0].describe()} (the "
                          "compression identity assumes an ergodic ambient)")
            return scaling_value_inverse(inner, node.number)
        if node.kind == "bernoulli":
            inner = walk(node.children[0])
            ledger.append(f"bernoulli invariance: value unchanged under the "
                          f"finite-alphabet extension (q={node.number})")
            return inner
        if node.kind == "amalgam":
            e1, e2, e3 = node.children
            if not e3.is_amenable():
                raise EvalError(
                    f"amalgam third factor {e3.describe()} is not tagged amenable")
            w1, w2, w3 = e1.base_weight, e2.base_weight, e3.base_weight
            if w1 + w2 - w3 != 1:
                raise EvalError(
                    f"base weights must satisfy w1 + w2 - w3 = 1, got "
                    f"{w1} + {w2} - {w3}")
            s1, s2, s3 = walk(e1), walk(e2), walk(e3)
            ledger.extend(_embedding(e3, e1) + _embedding(e3, e2))
            ledger.append(f"amenable: amalgamation over {e3.describe()}")
            ledger.append(f"s-regular and ergodic: factors {e1.describe()} "
                          f"and {e2.describe()} (user-asserted)")
            ledger.append(f"base weights: {w1}, {w2}, {w3} with "
                          "w1 + w2 - w3 = 1")
            return w1 * s1 + w2 * s2 - w3 * s3
        raise EvalError(f"cannot evaluate {node.kind}")

    try:
        value = walk(e)
    except RecursionError:
        raise EvalError("expression is nested too deeply") from None
    return SValue(value, tuple(ledger))
