"""Bounded symbolic balls for groups with cheap normal forms.

For sources with no finite concrete groupoid (the integers, free
products of finite cyclic groups) the counting machinery works on the
ball of all products of at most n generators and their inverses.  A
generating system is a normal-form reducer; the exact group trace
(1 at the identity, 0 elsewhere) follows from it.  Only families whose
word problem is trivially decidable are built in: free products of
cyclic groups (``CyclicProduct``, one syllable rule for ``z``,
``zmod(m)`` and ``freeprod(...)``) and finite groups given by a
multiplication table.  A user-supplied system needs only
``reduce_word``.

``breadth_first`` and ``product_triples`` are the ball and product
table loops shared with the groupoid sources of :mod:`soficdim.sofic`
and the projection universes of :mod:`soficdim.crossed`.

Words are tuples of syllables (generator name, nonzero exponent); the
empty tuple is the identity.  Reducers are idempotent and
reduce(w . w^-1) is always the empty word.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .groupoid import InfeasibleError, group_groupoid

Word = tuple  # tuple of (name, exponent) syllables

# most elements a ball may hold
BALL_CAP = 200000


def word_str(word: Word) -> str:
    if not word:
        return "e"
    parts = []
    for g, e in word:
        parts.append(g if e == 1 else f"{g}^{e}")
    return "*".join(parts)


class GeneratingSystem:
    """Base class: a generator list plus a normal-form reducer.

    ``letters`` holds the names a word may use: the generators, unless a
    subclass writes its canonical words in other names.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)
        self.letters = frozenset(self.generators)

    def reduce_word(self, word: Word) -> Word:
        raise NotImplementedError

    def tau_word(self, word: Word) -> Fraction:
        """The group trace: 1 at the identity (the empty reduced word)."""
        return Fraction(1) if not self.reduce_word(word) else Fraction(0)

    def reduce_product(self, u: Word, v: Word) -> Word:
        for g, _ in tuple(u) + tuple(v):
            if g not in self.letters:
                raise ValueError(f"unknown generator {g!r}")
        return self.reduce_word(tuple(u) + tuple(v))


class CyclicProduct(GeneratingSystem):
    """Free product of cyclic groups, one generator each.

    ``orders`` maps each generator to the order of its factor, 0 for
    the integers.  A canonical word never has two consecutive syllables
    on one generator, and reduces each exponent modulo its order (into
    1..m-1 for order m).
    """

    def __init__(self, orders):
        self.orders = dict(orders)
        super().__init__(self.orders)

    def reduce_word(self, word):
        out = []
        for g, e in word:
            if out and out[-1][0] == g:
                e += out.pop()[1]
            m = self.orders[g]
            if m:
                e %= m
            if e:
                out.append((g, e))
        return tuple(out)


class CyclicGroup(CyclicProduct):
    """Cyclic group of order m on the one generator a."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("order must be >= 1")
        self.order = m
        super().__init__({"a": m})


class TableGroup(GeneratingSystem):
    """Finite group given by a multiplication table.

    The canonical word of a non-identity element g is ((name_g, 1),),
    so a word may use every element name, generator or not.
    The one-unit groupoid built from the same table (``groupoid``)
    checks the group laws and gives the identity and the inverses; it is
    kept as the group's finite groupoid model.  With ``names`` None
    the elements are g0, g1, ..., and with ``gens`` None every
    non-identity element generates.
    """

    def __init__(self, table, names, gens):
        self.table = tuple(tuple(row) for row in table)
        m = len(self.table)
        self.names = tuple(names) if names else tuple(f"g{i}" for i in range(m))
        if len(self.names) != m:
            raise ValueError(f"names line gives {len(self.names)} names for {m} elements")
        if len(set(self.names)) != m:
            raise ValueError("element names must be distinct")
        self._index = {n: i for i, n in enumerate(self.names)}
        self.groupoid = group_groupoid(self.table)
        self.identity_index = self.groupoid.unit_arrow[0]
        self._inv = self.groupoid.inverse
        gen_names = tuple(gens) if gens else tuple(
            n for i, n in enumerate(self.names) if i != self.identity_index)
        for n in gen_names:
            if n not in self._index:
                raise ValueError(f"unknown generator name {n!r}")
        super().__init__(gen_names)
        self.letters = frozenset(self.names)

    def _mul(self, i, j):
        return self.table[i][j]

    def reduce_word(self, word):
        acc = self.identity_index
        for g, e in word:
            i = self._index[g]
            if e < 0:
                i, e = self._inv[i], -e
            for _ in range(e):
                acc = self._mul(acc, i)
        if acc == self.identity_index:
            return ()
        return ((self.names[acc], 1),)


# -- balls --------------------------------------------------------------------


class Ball:
    """All canonical forms of words of length <= n over F and inverses.

    ``elements`` are ordered by discovery (word length, then insertion);
    ``triples`` holds (i, j, k) in (i, j) order for each pair whose
    reduced product elements[k] lies in the ball.  It takes |ball|^2
    products, so it is built on first read: a count refused for its
    size never builds it.
    """

    def __init__(self, system, elements):
        self.system = system
        self.elements = tuple(elements)
        self.index = {w: i for i, w in enumerate(self.elements)}

    @cached_property
    def triples(self) -> tuple:
        return product_triples(self.elements, self.index, self.system.reduce_product)

    def __len__(self):
        return len(self.elements)

    def identity_index(self) -> int:
        return self.index[()]

    def tau(self, i: int) -> Fraction:
        return self.system.tau_word(self.elements[i])


def ball(system: GeneratingSystem, n: int) -> Ball:
    """Ball of radius n over the system's generators; more than
    ``BALL_CAP`` elements raise InfeasibleError."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    steps = [()] + [((g, e),) for g in system.generators for e in (1, -1)]
    elements = breadth_first((), steps, system.reduce_product, n, BALL_CAP, "word ball")
    return Ball(system, elements)


def breadth_first(start, steps, product, n: int, cap: int, what: str):
    """Everything ``product`` reaches from ``start`` by at most n right
    multiplications with ``steps``, as a list.

    Elements come in discovery order (by distance, then by the element
    that first reached them and the step it took), ``start`` first.
    Passing ``cap`` elements raises InfeasibleError naming ``what``.
    """
    elements = [start]
    seen = {start}
    lo = 0
    for _ in range(n):
        hi = len(elements)
        for u in elements[lo:hi]:
            for s in steps:
                w = product(u, s)
                if w not in seen:
                    seen.add(w)
                    elements.append(w)
                    if len(elements) > cap:
                        raise InfeasibleError(what, len(elements), "elements", cap)
        if len(elements) == hi:
            break
        lo = hi
    return elements


def product_triples(elements, index, product) -> tuple:
    """(i, j, k) for every pair whose ``product`` is elements[k] under
    ``index``, in (i, j) order; products outside ``index`` are left out."""
    triples = []
    for i, u in enumerate(elements):
        for j, v in enumerate(elements):
            k = index.get(product(u, v))
            if k is not None:
                triples.append((i, j, k))
    return tuple(triples)


# -- descriptors and table files ----------------------------------------------

_DESC_RE = re.compile(r"^\s*(z|zmod|freeprod|table)\s*(\((.*)\))?\s*$", re.S)


def _split_args(body: str) -> list[str]:
    args, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        args.append("".join(cur).strip())
    return [a for a in args if a]


_FACTOR_NAMES = "abcdefgh"


def parse_descriptor(text: str) -> GeneratingSystem:
    """Parse ``z``, ``zmod(m)``, ``freeprod(zmod(m1), zmod(m2), ...)`` or
    ``table(<cayley file>)``."""
    m = _DESC_RE.match(text)
    if not m:
        raise ValueError(f"bad generating-system descriptor: {text!r}")
    head, _, body = m.group(1), m.group(2), m.group(3)
    if head == "z":
        if m.group(2):
            raise ValueError("z takes no arguments")
        return CyclicProduct({"a": 0})
    if body is None:
        raise ValueError(f"{head} needs arguments")
    if head == "zmod":
        return CyclicGroup(int(body.strip()))
    if head == "table":
        return load_cayley_table(body.strip())
    args = _split_args(body)
    if len(args) > len(_FACTOR_NAMES):
        raise ValueError(f"freeprod takes at most {len(_FACTOR_NAMES)} factors")
    orders = {}
    for name, arg in zip(_FACTOR_NAMES, args):
        sub = parse_descriptor(arg)
        if not isinstance(sub, CyclicGroup):
            raise ValueError("freeprod factors must be zmod(m) in descriptors")
        if sub.order < 2:
            raise ValueError("freeprod factors must have order >= 2")
        orders[name] = sub.order
    if len(orders) < 2:
        raise ValueError("freeprod needs at least two factors")
    return CyclicProduct(orders)


def load_cayley_table(path) -> TableGroup:
    """Read a multiplication table file.

    Format: a ``order N`` line, a ``table`` line followed by N rows of N
    indices, then optional ``names ...`` and ``gens ...`` lines.  Blank
    lines and ``#`` comments are ignored.
    """
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    it = iter(lines)
    head = next(it, "")
    if not head.startswith("order "):
        raise ValueError("cayley file must start with 'order N'")
    n = int(head.split()[1])
    if next(it, "") != "table":
        raise ValueError("expected 'table' line")
    rows = []
    for i in range(n):
        line = next(it, None)
        if line is None:
            raise ValueError(f"cayley table ends before row {i} of {n}")
        row = [int(x) for x in line.split()]
        if len(row) != n:
            raise ValueError("table row has wrong length")
        rows.append(row)
    names = None
    gens = None
    for ln in it:
        if ln.startswith("names "):
            names = ln.split()[1:]
        elif ln.startswith("gens "):
            gens = ln.split()[1:]
        else:
            raise ValueError(f"unexpected line {ln!r}")
    return TableGroup(rows, names=names, gens=gens)
