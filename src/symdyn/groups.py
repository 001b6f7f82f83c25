"""Group contexts and finite-subset combinatorics.

Three kinds of finitely generated groups are supported at desk scale:

* integer lattices ``Z^d`` — elements are length-``d`` int tuples; ``Z``
  has its own arithmetic class on the one coordinate, and rank >= 2 uses
  the generic lattice;
* free groups ``Fk`` — elements are freely reduced words over
  ``a, b, c, ...`` with capital letters denoting inverses;
* finite groups given by a multiplication table — elements are row
  indices, with index 0 the identity.

Every context fixes a *deterministic order* on elements: sort by word
length with respect to the canonical generators, then lexicographically
on the canonical form.  All greedy searches, witness searches and
serializations in this package iterate in that order, which is what
makes re-runs byte-identical.

One sphere walk builds every word-length ball and the element order,
and caps the smallness radii: sphere ``r`` grows from sphere ``r - 1`` by right
multiplication with the generators, so a context supplies only its group
operations, generators, word length, order and codecs.  Balls are cached
per context, and the walk is guarded by the ``SYMDYN_MAX_BALL``
environment variable (default 200000 elements; any value that is not a
positive integer is rejected with ``ValueError``).
"""

from __future__ import annotations

import itertools
import operator
import os
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

DEFAULT_BALL_CAP = 200_000

_FREE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupParseError(ValueError):
    """Raised for unparseable group descriptors or element texts."""


class BallCapExceeded(RuntimeError):
    """Raised when a requested ball would exceed SYMDYN_MAX_BALL."""


def parse_int(text: str) -> int:
    """``int(text)`` for an optional ``-`` and ASCII digits only.

    ``int()`` also reads ``_`` separators, a ``+`` sign, surrounding spaces
    and other scripts' digits; each of those raises ``ValueError`` here.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def ball_cap() -> int:
    """The ball size cap: ``SYMDYN_MAX_BALL`` if set, else the default."""
    raw = os.environ.get("SYMDYN_MAX_BALL", "")
    if not raw:
        return DEFAULT_BALL_CAP
    try:
        cap = parse_int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"SYMDYN_MAX_BALL must be a positive integer, got {raw!r}")
    return cap


def _spheres(ctx: GroupContext, radius: Optional[int] = None) -> Iterator[list]:
    """Word-length spheres ``0, 1, ...`` (up to ``radius``), each in
    deterministic order: the one walk behind every ball.

    Sphere ``r`` is grown from sphere ``r - 1`` by right multiplication
    with the generators.  A product lies in sphere ``r - 2``, ``r - 1`` or
    ``r``, so the walk keeps those in neither sphere before it.  It ends
    after ``radius`` or at the first empty sphere (finite groups).  Raises
    ``BallCapExceeded`` as soon as a growing sphere takes the elements
    walked past ``ball_cap()``, naming ``ball(radius)``, or the ball that
    sphere closes when no radius is given.
    """
    cap = ball_cap()
    gens, mul = ctx.generators(), ctx.mul
    sphere = [ctx.identity]
    last, older = set(sphere), set()
    room, r = cap - 1, 0
    while sphere:
        yield sphere
        if r == radius:
            return
        r += 1
        grown: set = set()
        for s in sphere:
            for x in gens:
                g = mul(s, x)
                if g not in last and g not in older:
                    grown.add(g)
                    if len(grown) > room:
                        raise BallCapExceeded(
                            f"|ball({r if radius is None else radius})| exceeds "
                            f"SYMDYN_MAX_BALL={cap} on {ctx.describe()}"
                        )
        room -= len(grown)
        last, older = grown, last
        sphere = sorted(grown)  # one word length: the order is the element's


class GroupContext:
    """Base class: group operations plus the deterministic element order."""

    kind: str = "abstract"

    def __init__(self) -> None:
        self._ball_cache: dict[int, FiniteSubset] = {}

    # -- group structure -------------------------------------------------
    @property
    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def generators(self) -> tuple:
        """Canonical symmetric generating set."""
        raise NotImplementedError

    def word_length(self, g) -> int:
        raise NotImplementedError

    def sort_key(self, g):
        """Key realizing the deterministic order (word length, canonical form)."""
        return (self.word_length(g), g)

    # -- balls ------------------------------------------------------------
    def ball(self, r: int) -> FiniteSubset:
        """Closed word-length ball of radius ``r``, in deterministic order."""
        if r < 0:
            raise ValueError("ball radius must be >= 0")
        if r not in self._ball_cache:
            elems = tuple(itertools.chain.from_iterable(_spheres(self, r)))
            self._ball_cache[r] = FiniteSubset(elems, frozenset(elems))
        return self._ball_cache[r]

    # -- serialization ----------------------------------------------------
    def describe(self) -> str:
        raise NotImplementedError

    def element_to_json(self, g):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    def element_to_text(self, g) -> str:
        raise NotImplementedError

    def element_from_text(self, text: str):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GroupContext {self.describe()}>"


class LatticeContext(GroupContext):
    """``Z^d`` with generators the signed unit vectors; word length is L1."""

    kind = "lattice"

    def __init__(self, rank: int) -> None:
        if rank < 1:
            raise ValueError("lattice rank must be >= 1")
        super().__init__()
        self.rank = rank

    @property
    def identity(self):
        return (0,) * self.rank

    def mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    def generators(self) -> tuple:
        gens = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return tuple(sorted(gens, key=self.sort_key))

    def word_length(self, g) -> int:
        return sum(abs(x) for x in g)

    def describe(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"

    def element_to_json(self, g):
        return g[0] if self.rank == 1 else list(g)

    def element_from_json(self, obj):
        coords = [obj] if self.rank == 1 and not isinstance(obj, list) else obj
        if not (
            isinstance(coords, list)
            and len(coords) == self.rank
            and all(type(x) is int for x in coords)
        ):
            raise GroupParseError(f"bad {self.describe()} element: {obj!r}")
        return tuple(coords)

    def element_to_text(self, g) -> str:
        return ":".join(str(x) for x in g)

    def element_from_text(self, text: str):
        parts = text.split(":")
        if len(parts) != self.rank:
            raise GroupParseError(f"expected {self.rank} coordinates in {text!r}")
        try:
            return tuple(parse_int(p) for p in parts)
        except ValueError as exc:
            raise GroupParseError(f"bad coordinate in {text!r}") from exc


class LineContext(LatticeContext):
    """``Z``: the rank-1 lattice, with its arithmetic on the one coordinate.

    Elements stay 1-tuples, so codecs and certificates are the lattice's.
    """

    def __init__(self) -> None:
        super().__init__(1)

    def mul(self, a, b):
        return (a[0] + b[0],)

    def inv(self, a):
        return (-a[0],)

    def word_length(self, g) -> int:
        return abs(g[0])

    def sort_key(self, g):
        return (abs(g[0]), g)


def _reduce_word(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


class FreeGroupContext(GroupContext):
    """Free group on ``k`` letters; elements are freely reduced words."""

    kind = "free"

    def __init__(self, k: int) -> None:
        if not 1 <= k <= len(_FREE_LETTERS):
            raise ValueError("free rank out of range")
        super().__init__()
        self.free_rank = k
        self._letters = tuple(_FREE_LETTERS[:k]) + tuple(
            _FREE_LETTERS[:k].upper()
        )

    @property
    def identity(self):
        return ""

    def mul(self, a, b):
        # both words are reduced, so letters cancel only at the junction
        if not (a and b and a[-1] == b[0].swapcase()):
            return a + b
        n = min(len(a), len(b))
        i = 1
        while i < n and a[-1 - i] == b[i].swapcase():
            i += 1
        return a[: len(a) - i] + b[i:]

    def inv(self, a):
        return a[::-1].swapcase()

    def generators(self) -> tuple:
        return tuple(sorted(self._letters, key=self.sort_key))

    def word_length(self, g) -> int:
        return len(g)

    def describe(self) -> str:
        return f"F{self.free_rank}"

    def element_to_json(self, g):
        return g

    def element_from_json(self, obj):
        if not isinstance(obj, str):
            raise GroupParseError(f"bad free-group element: {obj!r}")
        return self.element_from_text(obj)

    def element_to_text(self, g) -> str:
        return g if g else "e"

    def element_from_text(self, text: str):
        if text in ("e", ""):
            return ""
        for ch in text:
            if ch not in self._letters:
                raise GroupParseError(f"letter {ch!r} not in {self.describe()}")
        red = _reduce_word(text)
        if red != text:
            raise GroupParseError(f"word {text!r} is not freely reduced")
        return text


class FiniteGroupContext(GroupContext):
    """Finite group presented by a full multiplication table (index 0 = identity)."""

    kind = "finite"

    def __init__(self, name: str, table: tuple[tuple[int, ...], ...]) -> None:
        super().__init__()
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        if any(table[0][i] != i or table[i][0] != i for i in range(n)):
            raise ValueError("index 0 must act as the identity")
        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inv[a] = b
            if inv[a] < 0:
                raise ValueError(f"element {a} has no inverse")
        self.name = name
        self.table = table
        self.order = n
        self._inv = tuple(inv)

    @property
    def identity(self):
        return 0

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def generators(self) -> tuple:
        return tuple(range(1, self.order))

    def word_length(self, g) -> int:
        return 0 if g == 0 else 1

    def describe(self) -> str:
        return f"finite:{self.name}"

    def element_to_json(self, g):
        return g

    def element_from_json(self, obj):
        if not isinstance(obj, int) or not 0 <= obj < self.order:
            raise GroupParseError(f"bad finite-group element: {obj!r}")
        return obj

    def element_to_text(self, g) -> str:
        return str(g)

    def element_from_text(self, text: str):
        try:
            g = parse_int(text)
        except ValueError as exc:
            raise GroupParseError(f"bad finite-group element {text!r}") from exc
        return self.element_from_json(g)


def _cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def _klein_table() -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(a ^ b for b in range(4)) for a in range(4))


def _s3_table() -> tuple[tuple[int, ...], ...]:
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q then p
        return tuple(p[q[i]] for i in range(3))

    return tuple(
        tuple(index[compose(p, q)] for q in perms) for p in perms
    )


FINITE_TABLES: dict[str, tuple[tuple[int, ...], ...]] = {
    "z2": _cyclic_table(2),
    "z3": _cyclic_table(3),
    "z4": _cyclic_table(4),
    "z6": _cyclic_table(6),
    "klein": _klein_table(),
    "s3": _s3_table(),
}

_CONTEXT_CACHE: dict[str, GroupContext] = {}


def parse_group(text: str) -> GroupContext:
    """Parse a group descriptor: ``Z``, ``Z^d``, ``Fk`` or ``finite:<name>``."""
    key = text.strip()
    if key in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[key]
    ctx: GroupContext
    if key == "Z" or key.startswith("Z^"):
        # ASCII digits only: int() also reads "٣", "+3" and " 3"
        rank = key[2:] if key != "Z" else "1"
        if not (rank.isascii() and rank.isdigit() and int(rank) >= 1):
            raise GroupParseError(f"bad lattice rank in {key!r}")
        ctx = LineContext() if int(rank) == 1 else LatticeContext(int(rank))
    elif key.startswith("F") and key[1:].isascii() and key[1:].isdigit():
        ctx = FreeGroupContext(int(key[1:]))
    elif key.startswith("finite:"):
        name = key.split(":", 1)[1]
        if name not in FINITE_TABLES:
            raise GroupParseError(
                f"unknown finite table {name!r}; builtins: {sorted(FINITE_TABLES)}"
            )
        ctx = FiniteGroupContext(name, FINITE_TABLES[name])
    else:
        raise GroupParseError(f"cannot parse group descriptor {text!r}")
    # keyed by the group, not the text: "Z^03" and "Z^3" share one context
    return _CONTEXT_CACHE.setdefault(ctx.describe(), ctx)


class ValueType:
    """Immutable value type, usable as a dict or set key: ``==`` holds between
    instances of one class with equal ``_key`` (an ``attrgetter`` of the
    compared fields), the hash is the key's, and the repr shows the public
    slots.  The hot ``FiniteSubset`` and ``Pattern`` write this rule out."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k[0] != "_")
        return f"{self.__class__.__qualname__}({', '.join(shown)})"


class FiniteSubset(ValueType):
    """Immutable finite subset, stored in the context's deterministic order."""

    __slots__ = ("elements", "_set")

    def __init__(self, elements: tuple, _set: frozenset):
        self.elements = elements
        self._set = _set

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.elements)

    @staticmethod
    def of(ctx: GroupContext, elems: Iterable) -> "FiniteSubset":
        uniq = sorted(set(elems), key=ctx.sort_key)
        return FiniteSubset(tuple(uniq), frozenset(uniq))

    def __contains__(self, g) -> bool:
        return g in self._set

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def as_set(self) -> frozenset:
        return self._set

    def to_json(self, ctx: GroupContext) -> list:
        return [ctx.element_to_json(g) for g in self.elements]

    @staticmethod
    def from_json(ctx: GroupContext, obj: list) -> "FiniteSubset":
        return FiniteSubset.of(ctx, (ctx.element_from_json(x) for x in obj))


def parse_subset(ctx: GroupContext, text: str) -> FiniteSubset:
    """Parse ``ball:r`` or a comma-separated element list (``-1,0,1``)."""
    text = text.strip()
    if text.startswith("ball:"):
        try:
            r = parse_int(text.split(":", 1)[1])
        except ValueError:
            raise GroupParseError(f"cannot parse subset {text!r}") from None
        return ctx.ball(r)
    if not text:
        return FiniteSubset.of(ctx, [])
    return FiniteSubset.of(
        ctx, (ctx.element_from_text(p.strip()) for p in text.split(","))
    )


# ---------------------------------------------------------------------------
# subset algebra
# ---------------------------------------------------------------------------

def set_mul(ctx: GroupContext, a: FiniteSubset, b: FiniteSubset) -> FiniteSubset:
    """Pointwise product ``{x*y : x in a, y in b}``, grown one row ``x * b``
    at a time.  Raises ``BallCapExceeded`` at the first row that takes it
    past ``ball_cap()`` elements."""
    cap, mul = ball_cap(), ctx.mul
    out: set = set()
    for x in a:
        out.update(mul(x, y) for y in b)
        if len(out) > cap:
            raise BallCapExceeded(
                f"|{len(a)} * {len(b)} set product| exceeds "
                f"SYMDYN_MAX_BALL={cap} on {ctx.describe()}"
            )
    return FiniteSubset.of(ctx, out)


def set_inv(ctx: GroupContext, a: FiniteSubset) -> FiniteSubset:
    return FiniteSubset.of(ctx, (ctx.inv(x) for x in a))


def set_pow(ctx: GroupContext, a: FiniteSubset, k: int) -> FiniteSubset:
    """``k``-fold product ``a * a * ... * a``; ``k = 0`` gives ``{e}``."""
    if k < 0:
        raise ValueError("set power must be >= 0")
    acc = FiniteSubset.of(ctx, [ctx.identity])
    for _ in range(k):
        acc = set_mul(ctx, acc, a)
    return acc


def symmetric_closure(ctx: GroupContext, a: FiniteSubset) -> FiniteSubset:
    return FiniteSubset.of(ctx, itertools.chain(a, (ctx.inv(x) for x in a)))


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

def separation_conflict(
    ctx: GroupContext, d: FiniteSubset, s: Iterable
) -> Optional[tuple]:
    """First pair (in order) of points of ``s`` whose ``d``-translates overlap."""
    owner: dict = {}
    for g in s:
        for x in d:
            cell = ctx.mul(x, g)
            if cell in owner and owner[cell] != g:
                return (owner[cell], g)
            owner[cell] = g
    return None


def is_separated(ctx: GroupContext, d: FiniteSubset, s: Iterable) -> bool:
    """True iff the sets ``d*g`` for ``g`` in ``s`` are pairwise disjoint."""
    return separation_conflict(ctx, d, s) is None


def maximal_separated(
    ctx: GroupContext, d: FiniteSubset, region: FiniteSubset
) -> FiniteSubset:
    """Greedy maximal ``d``-separated subset of ``region``.

    Scans ``region`` in deterministic order and keeps every point whose
    ``d``-translate is disjoint from the translates of all kept points.
    The result is maximal within ``region``: every rejected point
    conflicts with some kept one.
    """
    chosen: list = []
    occupied: set = set()
    for g in region:
        dg = [ctx.mul(x, g) for x in d]
        if all(cell not in occupied for cell in dg):
            chosen.append(g)
            occupied.update(dg)
    return FiniteSubset.of(ctx, chosen)


# ---------------------------------------------------------------------------
# syndeticity and smallness
# ---------------------------------------------------------------------------

def _layers(ctx: GroupContext, sources: Iterable, inside=None) -> Iterator[set]:
    """Layer ``rho`` is ``ball(rho)*sources`` minus ``ball(rho-1)*sources``.

    Steps by the generators, since every ball is a power of ``ball(1)``,
    the generators and the identity.  With ``inside`` given, the walk
    enters no cell outside it.  Stops after the last non-empty layer.
    """
    steps = ctx.generators()
    layer = set(sources)
    seen = set(layer)
    while layer:
        yield layer
        nxt = set()
        for g in layer:
            for x in steps:
                h = ctx.mul(x, g)
                if h not in seen and (inside is None or h in inside):
                    nxt.add(h)
        seen |= nxt
        layer = nxt


class SyndeticityResult(NamedTuple):
    found: bool
    radius: Optional[int]
    uncovered: Optional[object]
    checked_radius: int


def syndeticity_witness(
    ctx: GroupContext, s: FiniteSubset, region: FiniteSubset, max_radius: int
) -> SyndeticityResult:
    """Smallest ``r <= max_radius`` with ``ball(r) * s`` covering ``region``.

    Walks outward from ``s`` one layer per radius.  On failure the result
    carries the first uncovered element at the cap.
    """
    if max_radius < 0:
        raise ValueError(f"syndetic cap must be >= 0, got {max_radius}")
    walk = _layers(ctx, s)
    uncovered = list(region)
    for r in itertools.count():
        layer = next(walk, ())
        uncovered = [g for g in uncovered if g not in layer]
        if not uncovered:
            return SyndeticityResult(True, r, None, r)
        if r >= max_radius:
            return SyndeticityResult(False, None, uncovered[0], max_radius)


class RadiusVerdict(NamedTuple):
    radius: int
    verdict: str  # "small" | "not-small" | "inconclusive"
    gap: Optional[int]
    uncovered: Optional[object]
    avoidance_count: int

    def to_json(self, ctx: GroupContext) -> dict:
        return {
            "radius": self.radius,
            "verdict": self.verdict,
            "gap": self.gap,
            "uncovered": None
            if self.uncovered is None
            else ctx.element_to_json(self.uncovered),
            "avoidance_count": self.avoidance_count,
        }


class SmallnessReport(NamedTuple):
    per_radius: tuple
    overall: str  # "small-up-to-scale" | "not-small" | "inconclusive"

    def to_json(self, ctx: GroupContext) -> dict:
        return {
            "overall": self.overall,
            "per_radius": [v.to_json(ctx) for v in self.per_radius],
        }


def is_small(
    ctx: GroupContext,
    member: Callable,
    max_f_radius: int,
    region: FiniteSubset,
    syndetic_cap: int,
) -> SmallnessReport:
    """Finite-scale smallness test for the set ``{g : member(g)}``.

    For each radius ``r <= max_f_radius`` the avoidance set
    ``{g in region : ball(r)*g misses the set}`` is computed and tested
    for syndeticity relative to shrinking interiors of ``region``.  A
    radius verdict is ``small`` (with the covering gap), ``not-small``
    (avoidance fails syndeticity at the cap, witness element attached) or
    ``inconclusive`` (region too small to certify either way).

    ``member`` is asked once per cell of ``ball(max_f_radius)*region``,
    found by one walk outward from the region; one walk outward from the
    members found gives each cell's distance to the set, and the avoidance
    set at ``r`` is the cells farther than ``r``.  Interiors come from one
    walk inward from the region's edge.  Per radius, the region cells
    outside the avoidance set are pending; they leave when the cover
    ``ball(rho)*avoid``, grown one layer per ``rho``, reaches them or when
    the interior shrinks past them, and the witness is the first left at
    the cap.
    """
    if max_f_radius < 0:
        raise ValueError(f"radius must be >= 0, got {max_f_radius}")
    if syndetic_cap < 0:
        raise ValueError(f"syndetic cap must be >= 0, got {syndetic_cap}")
    for _ in itertools.islice(_spheres(ctx), max_f_radius + 1):
        pass  # ball(max_f_radius) must stay under the ball cap, like every ball
    # outward[k] is ball(k)*region minus ball(k-1)*region: outward[1] holds the
    # cells just outside, and outward[:max_f_radius + 1] covers ball(R)*region.
    rset = region.as_set()
    outward = list(itertools.islice(_layers(ctx, rset), max(2, max_f_radius + 1)))
    outside = outward[1] if len(outward) > 1 else ()
    # depth[g]: the largest rho <= cap with ball(rho)*g inside the region; a
    # cell at depth rho < cap is in layer rho + 1 of the walk inward from the
    # cells just outside (a whole finite group has none, so all stay at cap).
    depth = dict.fromkeys(region, syndetic_cap)
    inward = itertools.islice(_layers(ctx, outside, rset), 1, syndetic_cap + 1)
    for rho, layer in enumerate(inward):
        depth.update(dict.fromkeys(layer, rho))
    deepest = max(depth.values(), default=-1)
    expiring: list = [[] for _ in range(deepest + 1)]  # the cells of each depth
    for g, d in depth.items():
        expiring[d].append(g)
    # near[g]: the least r <= max_f_radius with a member in ball(r)*g, for the
    # region cells that have one.  Those members lie in ball(R)*region, and
    # so does a shortest walk from one of them to g.
    reach = set().union(*outward[: max_f_radius + 1])
    members = [g for g in reach if member(g)]
    near: dict = {}
    toward = _layers(ctx, members, reach)
    for r, layer in enumerate(itertools.islice(toward, max_f_radius + 1)):
        near.update(dict.fromkeys(layer & rset, r))
    gens = ctx.generators()
    verdicts = []
    for r in range(max_f_radius + 1):
        # A cell still pending at rho has ball(rho)*g inside the region, so a
        # shortest walk from the avoidance set to it runs, once it leaves the
        # set, through cells pending at the start: the cover grows from the
        # set's cells next to those, through those alone.
        pending = {g for g, d in near.items() if d <= r}
        avoided = len(region) - len(pending)
        border = {ctx.mul(x, g) for g in pending for x in gens}
        cover = _layers(ctx, (rset - pending) & border, set(pending))
        verdict: Optional[RadiusVerdict] = None
        for rho in range(syndetic_cap + 1):
            if rho > deepest:
                verdict = RadiusVerdict(r, "inconclusive", None, None, avoided)
                break
            if rho:
                pending.difference_update(expiring[rho - 1])
            pending.difference_update(next(cover, ()))
            if not pending:
                verdict = RadiusVerdict(r, "small", rho, None, avoided)
                break
        if verdict is None:
            witness = next(g for g in region if g in pending)
            verdict = RadiusVerdict(r, "not-small", None, witness, avoided)
        verdicts.append(verdict)
    if any(v.verdict == "not-small" for v in verdicts):
        overall = "not-small"
    elif any(v.verdict == "inconclusive" for v in verdicts):
        overall = "inconclusive"
    else:
        overall = "small-up-to-scale"
    return SmallnessReport(tuple(verdicts), overall)
