"""Bounded symbolic balls for groups with cheap normal forms.

For sources with no finite concrete groupoid (the integers, free
products of finite cyclic groups) the counting machinery works on the
ball of all products of at most n generators and their inverses.  A
generating system is a normal-form reducer; the exact group trace
(1 at the identity, 0 elsewhere) follows from it.  Only families whose
word problem is trivially decidable are built in (integers, cyclic
groups, finite groups given by a multiplication table, and free
products of finite factors).  A user-supplied system needs only
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
from pathlib import Path

from .groupoid import group_groupoid

Word = tuple  # tuple of (name, exponent) syllables

# most elements a ball may hold
BALL_CAP = 200000


class BallSizeError(RuntimeError):
    """The requested ball exceeds the configured size cap."""


def word_str(word: Word) -> str:
    if not word:
        return "e"
    parts = []
    for g, e in word:
        parts.append(g if e == 1 else f"{g}^{e}")
    return "*".join(parts)


class GeneratingSystem:
    """Base class: a generator list plus a normal-form reducer."""

    def __init__(self, generators):
        self.generators = tuple(generators)

    def reduce_word(self, word: Word) -> Word:
        raise NotImplementedError

    def tau_word(self, word: Word) -> Fraction:
        """The group trace: 1 at the identity (the empty reduced word)."""
        return Fraction(1) if not self.reduce_word(word) else Fraction(0)

    def reduce_product(self, u: Word, v: Word) -> Word:
        for g, _ in tuple(u) + tuple(v):
            if g not in self.generators:
                raise ValueError(f"unknown generator {g!r}")
        return self.reduce_word(tuple(u) + tuple(v))

    def descriptor(self) -> str:
        raise NotImplementedError


class IntegerLine(GeneratingSystem):
    """The infinite cyclic group; canonical form is a single power of a."""

    def __init__(self):
        super().__init__(("a",))

    def reduce_word(self, word):
        k = sum(e for _, e in word)
        return ((("a", k),) if k else ())

    def descriptor(self):
        return "z"


class CyclicGroup(GeneratingSystem):
    """Cyclic group of order m, exponents reduced into 1..m-1."""

    def __init__(self, m: int, name: str = "a"):
        if m < 1:
            raise ValueError("order must be >= 1")
        self.order = m
        super().__init__((name,))

    def reduce_word(self, word):
        k = sum(e for _, e in word) % self.order
        return (((self.generators[0], k),) if k else ())

    def descriptor(self):
        return f"zmod({self.order})"


class TableGroup(GeneratingSystem):
    """Finite group given by a multiplication table.

    The canonical word of a non-identity element g is ((name_g, 1),).
    The one-unit groupoid built from the same table checks the group
    laws and gives the identity and the inverses.
    """

    def __init__(self, table, names=None, gens=None, source: str = ""):
        self.table = tuple(tuple(row) for row in table)
        m = len(self.table)
        self.names = tuple(names) if names else tuple(f"g{i}" for i in range(m))
        if len(self.names) != m:
            raise ValueError(f"names line gives {len(self.names)} names for {m} elements")
        if len(set(self.names)) != m:
            raise ValueError("element names must be distinct")
        self._index = {n: i for i, n in enumerate(self.names)}
        groupoid = group_groupoid(self.table)
        self.identity_index = groupoid.unit_arrow[0]
        self._inv = groupoid.inverse
        self._source = source
        gen_names = tuple(gens) if gens else tuple(
            n for i, n in enumerate(self.names) if i != self.identity_index)
        for n in gen_names:
            if n not in self._index:
                raise ValueError(f"unknown generator name {n!r}")
        super().__init__(gen_names)

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

    def descriptor(self):
        return f"table({self._source})" if self._source else "table(<inline>)"


class FreeProductOfFinite(GeneratingSystem):
    """Free product of finite factors, canonical alternating syllables.

    Each factor is a finite generating system on a single generator
    namespace; canonical words never have two consecutive syllables
    from the same factor and never contain a factor identity.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        gens = []
        self._factor_of = {}
        for idx, fac in enumerate(self.factors):
            for g in fac.generators:
                if g in self._factor_of:
                    raise ValueError(f"generator {g!r} used by two factors")
                self._factor_of[g] = idx
                gens.append(g)
        super().__init__(gens)

    def reduce_word(self, word):
        stack: list[tuple[int, Word]] = []  # (factor index, canonical factor word)
        for g, e in word:
            idx = self._factor_of[g]
            syl = self.factors[idx].reduce_word(((g, e),))
            stack.append((idx, syl))
            while True:
                if stack and not stack[-1][1]:
                    stack.pop()
                    continue
                if len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
                    i, u = stack[-2]
                    _, v = stack[-1]
                    stack[-2:] = [(i, self.factors[i].reduce_word(u + v))]
                    continue
                break
        out = []
        for _, syl in stack:
            out.extend(syl)
        return tuple(out)

    def descriptor(self):
        return "freeprod(" + ", ".join(f.descriptor() for f in self.factors) + ")"


# -- balls --------------------------------------------------------------------


class Ball:
    """All canonical forms of words of length <= n over F and inverses.

    ``elements`` are ordered by discovery (word length, then insertion);
    ``mult[(i, j)]`` holds the index of the reduced product when it lies
    in the ball.  ``witness[i]`` is a shortest generating word found for
    element i.
    """

    __slots__ = ("system", "gens", "elements", "index", "witness", "mult")

    def __init__(self, system, gens, elements, witness):
        self.system = system
        self.gens = tuple(gens)
        self.elements = tuple(elements)
        self.index = {w: i for i, w in enumerate(self.elements)}
        self.witness = tuple(witness)
        self.mult = {(i, j): k for i, j, k in product_triples(
            self.elements, self.index, system.reduce_product)}

    def __len__(self):
        return len(self.elements)

    def identity_index(self) -> int:
        return self.index[()]

    def tau(self, i: int) -> Fraction:
        return self.system.tau_word(self.elements[i])


def ball(system: GeneratingSystem, gens=None, n: int = 1) -> Ball:
    """Ball of radius n over the chosen generator subset (default all);
    refuses more than ``BALL_CAP`` elements."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    gens = tuple(gens) if gens is not None else system.generators
    for g in gens:
        if g not in system.generators:
            raise ValueError(f"unknown generator {g!r}")
    steps = [()] + [((g, e),) for g in gens for e in (1, -1)]
    elements, parents = breadth_first(
        (), steps, system.reduce_product, n, BALL_CAP,
        lambda size: BallSizeError(f"ball exceeds cap {BALL_CAP}"))
    witness = [()]
    for p, s in parents[1:]:
        witness.append(witness[p] + s)
    return Ball(system, gens, elements, witness)


def breadth_first(start, steps, product, n: int, cap: int, too_big):
    """Everything ``product`` reaches from ``start`` by at most n right
    multiplications with ``steps``: (elements, parents).

    Elements come in discovery order (by distance, then by parent and
    step), ``start`` first.  ``parents[i]`` is (index of the element
    that first reached element i, the step it took); it is None for
    ``start``.  Passing ``cap`` elements raises ``too_big(size)``.
    """
    elements = [start]
    parents = [None]
    seen = {start}
    lo = 0
    for _ in range(n):
        hi = len(elements)
        for p in range(lo, hi):
            u = elements[p]
            for s in steps:
                w = product(u, s)
                if w not in seen:
                    seen.add(w)
                    elements.append(w)
                    parents.append((p, s))
                    if len(elements) > cap:
                        raise too_big(len(elements))
        if len(elements) == hi:
            break
        lo = hi
    return elements, parents


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
        return IntegerLine()
    if body is None:
        raise ValueError(f"{head} needs arguments")
    if head == "zmod":
        return CyclicGroup(int(body.strip()))
    if head == "table":
        return load_cayley_table(body.strip())
    args = _split_args(body)
    if len(args) > len(_FACTOR_NAMES):
        raise ValueError(f"freeprod takes at most {len(_FACTOR_NAMES)} factors")
    factors = []
    for i, arg in enumerate(args):
        sub = parse_descriptor(arg)
        if not isinstance(sub, CyclicGroup):
            raise ValueError("freeprod factors must be zmod(m) in descriptors")
        if sub.order < 2:
            raise ValueError("freeprod factors must have order >= 2")
        factors.append(CyclicGroup(sub.order, name=_FACTOR_NAMES[i]))
    if len(factors) < 2:
        raise ValueError("freeprod needs at least two factors")
    return FreeProductOfFinite(factors)


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
    return TableGroup(rows, names=names, gens=gens, source=str(path))
