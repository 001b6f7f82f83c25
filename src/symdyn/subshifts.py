"""Finite patterns, subshift presentations and window-scale pattern sets.

Conventions
-----------
Configurations are maps ``z : G -> A`` carrying the right-shift action
``(g . z)(h) = z(h g)``.  A *pattern* is a finite partial configuration;
the cylinder of a pattern ``p`` is ``{z : z agrees with p on dom(p)}``.
A forbidden pattern ``p`` rules out every translate: ``z`` is admissible
iff for no ``g`` the window ``(g . z)|_dom(p)`` equals ``p``.

Letters are plain ints for depth-1 alphabets and int tuples for stacked
alphabets (one coordinate per level).

Two pattern semantics are available:

* ``exact`` — rank-1 lattices only; the window language is computed from
  a transfer graph (recurrent part), so membership means genuine
  extendability to a bi-infinite admissible configuration;
* ``local(m)`` — any context; a pattern is accepted when it extends to
  an assignment with no fully visible forbidden occurrence on the
  ``ball(m)``-thickened domain.

All enumerations run in the deterministic order of the group context
(positions) and ascending letter order (values).
"""

from __future__ import annotations

import itertools
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .groups import (
    FiniteSubset,
    GroupContext,
    LatticeContext,
    ValueType,
    parse_group,
    parse_int,
    set_mul,
)

Letter = Union[int, tuple]


class SubshiftError(ValueError):
    """Raised for malformed presentations or unsupported semantics."""


class GluingError(RuntimeError):
    """Raised when a requested joint extension does not exist."""


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

class Pattern(ValueType):
    """Finite partial configuration; values aligned with the sorted domain."""

    __slots__ = ("domain", "values", "_map")

    def __init__(self, domain: FiniteSubset, values: tuple, _map: dict):
        self.domain = domain
        self.values = values
        self._map = _map

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.domain == other.domain and self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.domain, self.values))

    @staticmethod
    def of(ctx: GroupContext, mapping: dict) -> "Pattern":
        dom = FiniteSubset.of(ctx, mapping.keys())
        return Pattern.on(dom, tuple(mapping[g] for g in dom))

    @staticmethod
    def on(dom: FiniteSubset, vals: tuple) -> "Pattern":
        """The pattern with ``vals`` aligned with ``dom``'s sorted elements."""
        return Pattern(dom, vals, dict(zip(dom.elements, vals)))

    def value_at(self, g) -> Letter:
        return self._map[g]

    def get(self, g, default=None):
        return self._map.get(g, default)

    def items(self):
        return zip(self.domain.elements, self.values)

    def mapping(self) -> dict:
        return dict(self._map)

    def translate(self, ctx: GroupContext, g) -> "Pattern":
        """Pattern satisfied by ``g . z`` when ``z`` satisfies this one."""
        ginv = ctx.inv(g)
        return Pattern.of(
            ctx, {ctx.mul(h, ginv): v for h, v in self.items()}
        )

    def to_json(self, ctx: GroupContext) -> dict:
        return {
            "domain": [ctx.element_to_json(g) for g in self.domain],
            "values": [letter_to_json(v) for v in self.values],
        }

    @staticmethod
    def from_json(
        ctx: GroupContext, obj: dict, path: str = "pattern"
    ) -> "Pattern":
        cells = _json_get(obj, "domain", list, path)
        vals = _json_get(obj, "values", list, path)
        if len(cells) != len(vals):
            raise SubshiftError(f"{path} domain/values length mismatch")
        mapping: dict = {}
        for i, (x, v) in enumerate(zip(cells, vals)):
            g = ctx.element_from_json(x)
            if g in mapping:
                raise SubshiftError(f"{path}.domain names a cell twice")
            where = f"{path}.values[{i}]"
            mapping[g] = (
                _json_ints(v, where) if type(v) is list else _json_check(v, int, where)
            )
        return Pattern.of(ctx, mapping)


def letter_to_json(v: Letter):
    return list(v) if isinstance(v, tuple) else v


def _json_get(obj, key: str, kind, path: str = "", default=None):
    """``obj[key]`` of decoded JSON, of a type in ``kind``; required unless
    a ``default`` is given.  Each rejection names the key path."""
    if not isinstance(obj, dict):
        raise SubshiftError(f"{path or 'spec'} must be a JSON object")
    where = f"{path}.{key}" if path else key
    if key not in obj and default is None:
        raise SubshiftError(f"missing key {where}")
    return _json_check(obj.get(key, default), kind, where)


def _json_check(value, kind, where: str):
    # exact types, as json.loads builds them: a bool is not an int
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise SubshiftError(f"{where} must be {names}, got {value!r}")
    return value


def _json_ints(values: list, where: str) -> tuple:
    return tuple(
        _json_check(x, int, f"{where}[{i}]") for i, x in enumerate(values)
    )


def pattern_sort_key(p: Pattern):
    return (len(p.domain), p.domain.elements, p.values)


def sorted_patterns(pats: Iterable[Pattern]) -> list[Pattern]:
    return sorted(pats, key=pattern_sort_key)


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------

class Semantics(ValueType):
    __slots__ = ("mode", "margin")
    _key = attrgetter("mode", "margin")

    def __init__(self, mode: str, margin: int = 0):
        self.mode = mode  # "exact" | "local"
        self.margin = margin

    def describe(self) -> str:
        return "exact" if self.mode == "exact" else f"local:{self.margin}"


EXACT = Semantics("exact")


def local(margin: int) -> Semantics:
    if margin < 0:
        raise ValueError("local margin must be >= 0")
    return Semantics("local", margin)


def parse_semantics(text: str) -> Semantics:
    text = text.strip()
    if text == "exact":
        return EXACT
    if text.startswith("local:"):
        try:
            margin = parse_int(text.split(":", 1)[1])
        except ValueError:
            raise SubshiftError(f"cannot parse semantics {text!r}") from None
        return local(margin)
    raise SubshiftError(f"cannot parse semantics {text!r}")


def _require_exact_ctx(ctx: GroupContext) -> None:
    if not (isinstance(ctx, LatticeContext) and ctx.rank == 1):
        raise SubshiftError("exact semantics requires the rank-1 lattice")


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def _letters_for(sizes: tuple[int, ...]) -> tuple:
    if any(s < 1 for s in sizes):
        raise SubshiftError("alphabet sizes must be >= 1")
    if len(sizes) == 1:
        return tuple(range(sizes[0]))
    return tuple(itertools.product(*(range(s) for s in sizes)))


class SftSpec(ValueType):
    """Subshift of finite type: alphabet sizes per level + forbidden patterns."""

    __slots__ = ("group", "alphabet_sizes", "forbidden", "name")
    _key = attrgetter(*__slots__)

    def __init__(self, group: str, alphabet_sizes: tuple, forbidden: tuple,
                 name: str = ""):
        if any(len(p.domain) == 0 for p in forbidden):
            raise SubshiftError("forbidden patterns need non-empty domains")
        self.group = group
        self.alphabet_sizes = alphabet_sizes
        self.forbidden = forbidden
        self.name = name

    @property
    def stack(self) -> int:
        return len(self.alphabet_sizes)

    def letters(self) -> tuple:
        return _letters_for(self.alphabet_sizes)

    def to_json(self, ctx: GroupContext) -> dict:
        alpha = (
            self.alphabet_sizes[0]
            if len(set(self.alphabet_sizes)) == 1
            else list(self.alphabet_sizes)
        )
        return {
            "group": self.group,
            "alphabet": alpha,
            "stack": self.stack,
            "forbidden": [p.to_json(ctx) for p in self.forbidden],
            "name": self.name,
        }

    @staticmethod
    def from_json(ctx: GroupContext, obj: dict) -> "SftSpec":
        alpha = _json_get(obj, "alphabet", (int, list))
        if type(alpha) is list:
            sizes = _json_ints(alpha, "alphabet")
            stack = _json_get(obj, "stack", int, default=len(sizes))
            if stack != len(sizes):
                raise SubshiftError(
                    f"stack must equal the {len(sizes)} alphabet sizes, got {stack}"
                )
        else:
            # bounded before the size tuple is built; every level with two
            # or more letters multiplies the alphabet
            stack = _json_get(obj, "stack", int, default=1)
            if not 1 <= stack <= 64:
                raise SubshiftError(f"stack must lie in 1..64, got {stack}")
            sizes = (alpha,) * stack
        if not sizes or min(sizes) < 1:
            raise SubshiftError("alphabet sizes must be >= 1")
        forb = []
        for i, item in enumerate(_json_get(obj, "forbidden", list, default=[])):
            p = Pattern.from_json(ctx, item, f"forbidden[{i}]")
            for v in p.values:
                coords = v if len(sizes) > 1 and type(v) is tuple else (v,)
                if len(coords) != len(sizes) or any(
                    x not in range(k) for x, k in zip(coords, sizes)
                ):
                    raise SubshiftError(
                        f"forbidden[{i}] uses the letter {v!r} outside the alphabet"
                    )
            forb.append(p)
        return SftSpec(
            _json_get(obj, "group", str),
            sizes,
            tuple(forb),
            _json_get(obj, "name", str, default=""),
        )


class SubstitutionSpec(ValueType):
    """Primitive substitution system on Z, presented by its expansion rules.

    The window language is the factor set of the one-sided fixed point of
    the substitution (rule for letter 0 must start with 0 and expand), so
    only exact semantics applies and only on the rank-1 lattice.
    Primitivity (some power of the incidence matrix is positive) makes
    every letter recur in that fixed point, and lets ``factors`` read the
    language off the legal two-letter words.
    """

    __slots__ = ("group", "alphabet_sizes", "rules", "name")
    _key = attrgetter(*__slots__)

    def __init__(self, group: str, alphabet_sizes: tuple, rules: tuple,
                 name: str = ""):
        self.group = group
        self.alphabet_sizes = alphabet_sizes
        self.rules = rules  # rules[letter] = tuple of letters
        self.name = name
        if self.group != "Z":
            raise SubshiftError("substitution systems are presented on Z only")
        if len(self.alphabet_sizes) != 1:
            raise SubshiftError("substitution systems are depth-1")
        k = self.alphabet_sizes[0]
        if k < 1 or len(self.rules) != k or any(not r for r in self.rules):
            raise SubshiftError("need a non-empty rule per letter")
        if any(a not in range(k) for r in self.rules for a in r):
            raise SubshiftError(f"rules may only use the letters 0..{k - 1}")
        if self.rules[0][0] != 0 or len(self.rules[0]) < 2:
            raise SubshiftError("rule for 0 must start with 0 and expand")
        # rows[a] has bit b set when b occurs in sigma^n(a); by Wielandt's
        # bound a primitive matrix is positive by the power (k-1)^2 + 1
        full = (1 << k) - 1
        base = [sum(1 << a for a in set(r)) for r in self.rules]
        rows = list(base)
        for _ in range((k - 1) ** 2):
            if all(row == full for row in rows):
                break
            rows = [_bitrow_mul(row, base) for row in rows]
        if any(row != full for row in rows):
            raise SubshiftError(
                "substitution is not primitive: no power of its incidence "
                "matrix is positive"
            )

    @property
    def stack(self) -> int:
        return 1

    def letters(self) -> tuple:
        return _letters_for(self.alphabet_sizes)

    def factors(self, length: int) -> list[tuple]:
        """All length-``length`` factors of the fixed point, sorted.

        The legal two-letter words are those inside some ``sigma(a)``,
        closed under ``ab -> sigma(a) sigma(b)``.  Once every
        ``sigma^n(a)`` has at least ``length - 1`` letters, each factor of
        the fixed point lies inside ``sigma^n(ab)`` for a legal ``ab``.
        """
        if length == 0:
            return [()]
        rules = self.rules
        legal = {r[i : i + 2] for r in rules for i in range(len(r) - 1)}
        todo = list(legal)
        while todo:
            a, b = todo.pop()
            image = rules[a] + rules[b]
            for i in range(len(image) - 1):
                w = image[i : i + 2]
                if w not in legal:
                    legal.add(w)
                    todo.append(w)
        power = [(a,) for a in range(len(rules))]
        while min(map(len, power)) < length - 1:
            power = [tuple(x for y in w for x in rules[y]) for w in power]
        found = set()
        for a, b in legal:
            w = power[a] + power[b]
            found.update(w[i : i + length] for i in range(len(w) - length + 1))
        return sorted(found)

    def to_json(self, ctx: GroupContext) -> dict:
        return {
            "group": self.group,
            "alphabet": self.alphabet_sizes[0],
            "stack": 1,
            "substitution": {str(i): list(r) for i, r in enumerate(self.rules)},
            "name": self.name,
        }

    @staticmethod
    def from_json(ctx: GroupContext, obj: dict) -> "SubstitutionSpec":
        k = _json_get(obj, "alphabet", int)
        sub = _json_get(obj, "substitution", dict)
        rules = tuple(
            _json_ints(
                _json_get(sub, str(i), list, "substitution"), f"substitution.{i}"
            )
            for i in range(k)
        )
        return SubstitutionSpec(
            _json_get(obj, "group", str), (k,), rules,
            _json_get(obj, "name", str, default=""),
        )


class BlockMap(ValueType):
    """Sliding-block code: output letter from the window on ``support``."""

    __slots__ = ("support", "out_sizes", "name", "fn")
    _key = attrgetter("support", "out_sizes", "name")

    def __init__(self, support: FiniteSubset, out_sizes: tuple, name: str, fn: Callable):
        self.support = support
        self.out_sizes = out_sizes
        self.name = name
        self.fn = fn

    def apply_window(self, window: tuple) -> Letter:
        return self.fn(window)


class ImageSpec(ValueType):
    """Image of a subshift under a block map, represented intensionally.

    Pattern sets are push-forwards of the source pattern sets; nothing is
    inferred about the image beyond what window enumeration shows.
    """

    __slots__ = ("source", "bmap", "name")
    _key = attrgetter(*__slots__)

    def __init__(self, source: object, bmap: BlockMap, name: str = ""):
        self.source = source
        self.bmap = bmap
        self.name = name

    @property
    def group(self) -> str:
        return self.source.group

    @property
    def alphabet_sizes(self) -> tuple:
        return self.bmap.out_sizes

    @property
    def stack(self) -> int:
        return len(self.bmap.out_sizes)

    def letters(self) -> tuple:
        return _letters_for(self.bmap.out_sizes)


SpecLike = Union[SftSpec, SubstitutionSpec, ImageSpec]


def check_level(stack: int, level: int) -> None:
    """Reject a level outside ``1..stack``, the levels a stacked letter has."""
    if not 1 <= level <= stack:
        raise SubshiftError(f"level must lie in 1..{stack}, got {level}")


def project_letter(v: Letter, n: int, stack: int) -> Letter:
    """Truncate a stacked letter to its first ``n`` levels."""
    if stack == 1:
        if n != 1:
            raise SubshiftError("depth-1 letters only project to n=1")
        return v
    if not 1 <= n <= stack:
        raise SubshiftError(f"cannot project stack {stack} to {n} levels")
    return v[0] if n == 1 else tuple(v[:n])


def letter_coords(v: Letter, stack: int) -> tuple:
    """Per-level coordinates of a letter (singletons for depth 1)."""
    return (v,) if stack == 1 else tuple(v)


def make_letter(coords: tuple) -> Letter:
    """Inverse of :func:`letter_coords`: rebuild a letter from coordinates."""
    return coords[0] if len(coords) == 1 else tuple(coords)


def project_pattern(ctx: GroupContext, p: Pattern, n: int, stack: int) -> Pattern:
    return Pattern.on(p.domain, tuple(project_letter(v, n, stack) for v in p.values))


# ---------------------------------------------------------------------------
# transfer graph (exact semantics on Z)
# ---------------------------------------------------------------------------

def hull_interval(f: FiniteSubset) -> tuple[int, int]:
    ints = [g[0] for g in f]
    return (min(ints), max(ints))


def _normalized_forbidden(spec: SftSpec) -> list[tuple[tuple, tuple]]:
    """Each forbidden pattern as (relative offsets from 0, values), sorted."""
    out = []
    for p in spec.forbidden:
        pairs = sorted((g[0], v) for g, v in p.items())
        base = pairs[0][0]
        offs = tuple(o - base for o, _ in pairs)
        vals = tuple(v for _, v in pairs)
        out.append((offs, vals))
    return out


def _no_cells(vals: list) -> tuple:
    """Getter of a one-cell occurrence: nothing else to match."""
    return ()


def _matcher(cells: list, letters) -> tuple:
    """``(getter, want)``: ``getter(word) == want`` when the word holds
    ``letters`` at the indices ``cells``."""
    if not cells:
        return _no_cells, ()
    if len(cells) == 1:
        return itemgetter(cells[0]), letters[0]
    return itemgetter(*cells), tuple(letters)


class TransferGraph:
    """Sliding-window automaton for a depth-anything SFT on Z.

    States are admissible words of length ``m`` (the largest forbidden
    diameter); an edge appends one letter.  The edges are the
    ``(m + 1)``-words that a ``_LocalRegion`` on ``m + 1`` cells admits,
    so the graph and every local fill run one compiler of forbidden
    patterns.  After trimming to the recurrent part, finite paths are
    exactly the windows of bi-infinite admissible configurations, which
    is what exact semantics promises.

    The trimmed states are numbered once, in sorted order (``index``).
    ``rows[a][i]`` has bit ``j`` set when letter ``a`` leads from state
    ``i`` to state ``j``, ``full`` has every state's bit, and ``power(n)``
    gives the rows of the ``n``-step reachability matrix.  ``step`` moves a
    mask of states one position on, or back through ``back_rows``.  Window
    feasibility, membership, the outward fill behind ``conf`` and the
    interval gluer all walk these rows.
    """

    def __init__(self, spec: SftSpec):
        self.letters = tuple(sorted(spec.letters()))
        norm = _normalized_forbidden(spec)
        m = self.m = max((offs[-1] for offs, _ in norm), default=0)
        # Every (m + 1)-word with no forbidden occurrence, least first, is an
        # edge from its first m letters to its last m; a word with no
        # out-edge is no state, as trimming would drop it anyway.
        region = _LocalRegion(parse_group("Z"), spec, [(i,) for i in range(m + 1)])
        edges: dict = {}
        for word in region.search([None] * (m + 1), region.choices(), 0, m + 1):
            edges.setdefault(tuple(word[:m]), []).append((word[m], tuple(word[1:])))
        self.states, self.edges = self._essentialize(list(edges), edges)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.full = (1 << len(self.states)) - 1
        self.rows = {a: [0] * len(self.states) for a in self.letters}
        for i, s in enumerate(self.states):
            for a, t in self.edges[s]:
                self.rows[a][i] = 1 << self.index[t]
        self._powers: list[list[int]] = []
        self._counts: list[dict] = [dict.fromkeys(self.states, 1)]
        self._prefixes: dict[int, list[tuple]] = {}
        self._back: dict = {}

    @staticmethod
    def _essentialize(states, edges):
        alive = set(states)
        changed = True
        while changed:
            changed = False
            incoming = {s: 0 for s in alive}
            for s in alive:
                for _, t in edges[s]:
                    if t in alive:
                        incoming[t] += 1
            for s in list(alive):
                outs = [t for _, t in edges[s] if t in alive]
                if not outs or incoming[s] == 0:
                    alive.discard(s)
                    changed = True
        kept = tuple(sorted(alive))
        pruned = {
            s: tuple((a, t) for a, t in edges[s] if t in alive) for s in kept
        }
        return kept, pruned

    def _prefix_words(self, length: int) -> list[tuple]:
        if length not in self._prefixes:
            self._prefixes[length] = sorted({s[:length] for s in self.states})
        return self._prefixes[length]

    def language(self, length: int) -> Iterator[tuple]:
        """All admissible windows of ``length``, lexicographically."""
        if length < 0:
            raise ValueError("window length must be >= 0")
        if not self.states:
            return
        if length <= self.m:
            yield from self._prefix_words(length)
            return
        def rec(state: tuple, word: tuple, todo: int):
            if todo == 0:
                yield word
                return
            for a, t in self.edges[state]:
                yield from rec(t, word + (a,), todo - 1)
        for s in self.states:
            yield from rec(s, s, length - self.m)

    def power(self, n: int) -> list[int]:
        """Rows of the ``n``-step reachability matrix, cached as they grow."""
        if not self._powers:
            adj = [0] * len(self.states)
            for rows in self.rows.values():
                adj = [x | y for x, y in zip(adj, rows)]
            self._powers = [[1 << i for i in range(len(adj))], adj]
        while len(self._powers) <= n:
            prev = self._powers[-1]
            self._powers.append([_bitrow_mul(r, self._powers[1]) for r in prev])
        return self._powers[n]

    def back_rows(self) -> dict:
        """``rows`` reversed, built on first use: ``back_rows()[a][j]`` has
        bit ``i`` set when letter ``a`` leads from state ``i`` to state ``j``."""
        if not self._back:
            for a, rows in self.rows.items():
                back = [0] * len(self.states)
                for i, row in enumerate(rows):
                    if row:
                        back[row.bit_length() - 1] |= 1 << i
                self._back[a] = back
        return self._back

    def contains(self, word: tuple) -> bool:
        """Is ``word`` an admissible window?

        A word of at least ``m`` letters starts at the state of its first
        ``m`` letters and follows one row bit per further letter.
        """
        if len(word) < self.m:
            return word in set(self._prefix_words(len(word)))
        cur = self.index.get(word[: self.m])
        if cur is None:
            return False
        for a in word[self.m :]:
            rows = self.rows.get(a)
            if rows is None or not rows[cur]:
                return False
            cur = rows[cur].bit_length() - 1
        return True

    def sample(self, length: int, rng) -> tuple:
        """Uniform sample from the window language (weighted DP walk).

        ``_counts[k][s]`` is the number of ``k``-letter paths out of state
        ``s``.  The table grows to the longest length asked for and is kept,
        like ``_powers``, so repeated samples only walk it: one draw picks
        the first state by its count, then one draw per letter picks an edge
        by the count of its target.
        """
        if not self.states:
            raise SubshiftError("empty window language")
        if length <= self.m:
            pts = self._prefix_words(length)
            return pts[rng.randrange(len(pts))]
        steps = length - self.m
        counts = self._counts
        while len(counts) <= steps:
            prev = counts[-1]
            counts.append(
                {s: sum(prev[t] for _, t in self.edges[s]) for s in self.states}
            )
        weights = counts[steps]
        pick = rng.randrange(sum(weights.values()))
        for s in self.states:
            if pick < weights[s]:
                break
            pick -= weights[s]
        word = list(s)
        cur = s
        for depth in range(steps - 1, -1, -1):
            wvec = counts[depth]
            pick = rng.randrange(counts[depth + 1][cur])
            for a, t in self.edges[cur]:
                if pick < wvec[t]:
                    word.append(a)
                    cur = t
                    break
                pick -= wvec[t]
        return tuple(word)

    def step(self, mask: int, lset, back: bool = False) -> int:
        """The states that a letter of ``lset`` (any letter when ``None``)
        leads the states of ``mask`` to; with ``back``, the states that such
        a letter leads into ``mask``."""
        if lset is None and not back:
            return _bitrow_mul(mask, self.power(1))
        table = self.back_rows() if back else self.rows
        out = 0
        for a in self.letters if lset is None else lset:
            rows = table.get(a)
            if rows is not None:
                out |= _bitrow_mul(mask, rows)
        return out

    def feasible(self, length: int, allowed: dict) -> bool:
        """Is there a window of ``length`` with its letters in ``allowed``?

        ``allowed`` maps 0-based positions to letter sets; other positions
        are free.  A word is a window exactly when it labels a path of the
        trimmed graph (after ``k >= m`` letters the state is the last ``m``
        of them, and every state lies on a bi-infinite path), so a mask of
        all states steps through the rows once per position.
        """
        mask = self.full
        for pos in range(length):
            if not mask:
                return False
            mask = self.step(mask, allowed.get(pos))
        return bool(mask)


def _bitrow_mul(row: int, rows: list[int]) -> int:
    """Union of ``rows[i]`` over the bits ``i`` set in ``row``."""
    out = 0
    while row:
        low = row & -row
        out |= rows[low.bit_length() - 1]
        row ^= low
    return out


_TRANSFER_CACHE: dict = {}


def transfer_graph(spec: SftSpec) -> TransferGraph:
    if spec not in _TRANSFER_CACHE:
        _TRANSFER_CACHE[spec] = TransferGraph(spec)
    return _TRANSFER_CACHE[spec]


# ---------------------------------------------------------------------------
# local fills (any context)
# ---------------------------------------------------------------------------

class _LocalRegion:
    """A finite region compiled once against an SFT's forbidden patterns.

    Cells are numbered in fill order.  Every forbidden occurrence lying
    inside the region is watched by its last cell in that order:
    ``watch[i][a]`` lists, for letter ``a`` at cell ``i``, the occurrences
    that assigning ``a`` there completes, each as an item getter over the
    earlier cells and the letters it must find.  Backtracking then compares
    values by index instead of multiplying group elements at every node.
    """

    def __init__(self, ctx: GroupContext, spec: SftSpec, cells: Iterable):
        self.cells = tuple(cells)
        self.index = {g: i for i, g in enumerate(self.cells)}
        self.letters = tuple(sorted(spec.letters()))
        watch: list[dict] = [{} for _ in self.cells]
        for p in spec.forbidden:
            # the occurrence anchored at c puts item h at h * anchor * c
            (h0, v0), *items = p.items()
            anchor = ctx.inv(h0)
            items = [(ctx.mul(h, anchor), v) for h, v in items]
            for c in self.cells:
                occ = [(self.index[c], v0)]
                for k, v in items:
                    j = self.index.get(ctx.mul(k, c))
                    if j is None:
                        break
                    occ.append((j, v))
                else:
                    occ.sort()  # cells are distinct: sorts by index
                    last, a = occ.pop()
                    check = _matcher([j for j, _ in occ], [v for _, v in occ])
                    watch[last].setdefault(a, []).append(check)
        self.watch = watch

    def among(self, lset) -> tuple:
        """The letters that lie in ``lset``, ascending."""
        return tuple(a for a in self.letters if a in lset)

    def choices(self, allowed: Optional[dict] = None) -> list:
        """Letters open to each cell: all of them, or those in ``allowed``."""
        allowed = allowed or {}
        return [
            self.letters if (lset := allowed.get(g)) is None else self.among(lset)
            for g in self.cells
        ]

    def search(self, vals: list, choices: list, start: int, stop: int) -> Iterator[list]:
        """Assign ``vals[start:stop]`` in cell order, least letters first.

        Cells before ``start`` must already hold values.  Yields ``vals``
        (updated in place) after each assignment of the range that
        completes no forbidden occurrence.
        """
        if start >= stop:
            yield vals
            return
        watch = self.watch
        pending: list = [None] * stop
        pos = start
        pending[pos] = iter(choices[pos])
        while True:
            opts = watch[pos]
            for a in pending[pos]:
                for get, want in opts.get(a, ()):
                    if get(vals) == want:
                        break
                else:
                    vals[pos] = a
                    break
            else:
                if pos == start:
                    return
                pos -= 1
                continue
            if pos + 1 == stop:
                yield vals
            else:
                pos += 1
                pending[pos] = iter(choices[pos])

    def extends(self, vals: list, choices: list, start: int = 0) -> bool:
        """Do ``vals[:start]`` extend to an admissible fill of the region?"""
        return next(self.search(vals, choices, start, len(self.cells)), None) is not None


# ---------------------------------------------------------------------------
# pattern sets
# ---------------------------------------------------------------------------

_PATTERN_SET_CACHE: dict = {}


def window_patterns(
    ctx: GroupContext, spec: SpecLike, f: FiniteSubset, sem: Semantics
) -> Iterator[Pattern]:
    """Lazy deterministic enumeration of the admissible patterns on ``f``."""
    if len(f) == 0:
        yield Pattern.of(ctx, {})
        return
    if isinstance(spec, ImageSpec):
        seen = set()
        src_dom = set_mul(ctx, spec.bmap.support, f)
        for beta in window_patterns(ctx, spec.source, src_dom, sem):
            pushed = push_forward(ctx, spec.bmap, beta, f)
            if pushed not in seen:
                seen.add(pushed)
                yield pushed
        return
    if isinstance(spec, SubstitutionSpec):
        if sem.mode != "exact":
            raise SubshiftError("substitution systems support exact semantics only")
        _require_exact_ctx(ctx)
        lo, hi = hull_interval(f)
        idxs = [g[0] - lo for g in f]
        seen = set()
        for w in spec.factors(hi - lo + 1):
            p = Pattern.on(f, tuple(w[i] for i in idxs))
            if p not in seen:
                seen.add(p)
                yield p
        return
    if not isinstance(spec, SftSpec):
        raise SubshiftError(f"unknown spec flavor {type(spec).__name__}")
    if sem.mode == "exact":
        _require_exact_ctx(ctx)
        tg = transfer_graph(spec)
        lo, hi = hull_interval(f)
        idxs = [g[0] - lo for g in f]
        full = len(f) == hi - lo + 1
        seen = set()
        for w in tg.language(hi - lo + 1):
            p = Pattern.on(f, tuple(w[i] for i in idxs))
            if full:
                yield p
            elif p not in seen:
                seen.add(p)
                yield p
        return
    # Every fill below the node that assigns the last cell of ``f`` has
    # the same ``f``-projection, so the search stops there and probes the
    # margin once per new projection; yields keep the order of a scan of
    # all fills.
    region = _LocalRegion(ctx, spec, set_mul(ctx, ctx.ball(sem.margin), f))
    choices = region.choices()
    fpos = [region.index[g] for g in f]
    cut = max(fpos) + 1
    project = itemgetter(*fpos)
    seen = set()
    for vals in region.search([None] * len(region.cells), choices, 0, cut):
        key = project(vals)
        if key not in seen and region.extends(vals, choices, cut):
            seen.add(key)
            yield Pattern.on(f, tuple(vals[i] for i in fpos))


def pattern_set(
    ctx: GroupContext, spec: SpecLike, f: FiniteSubset, sem: Semantics
) -> frozenset:
    """The set of admissible patterns on ``f`` under the given semantics."""
    key = (ctx.describe(), spec, f, sem)
    if key not in _PATTERN_SET_CACHE:
        _PATTERN_SET_CACHE[key] = frozenset(window_patterns(ctx, spec, f, sem))
    return _PATTERN_SET_CACHE[key]


def level_pattern_list(
    ctx: GroupContext,
    spec: SpecLike,
    dom: FiniteSubset,
    level: int,
    sem: Semantics,
) -> list[Pattern]:
    """Admissible ``dom``-patterns truncated to ``level``, canonically sorted."""
    pats = sorted_patterns(pattern_set(ctx, spec, dom, sem))
    if level == spec.stack:
        return pats
    return sorted_patterns(
        {project_pattern(ctx, p, level, spec.stack) for p in pats}
    )


def push_forward(
    ctx: GroupContext, bmap: BlockMap, beta: Pattern, f: FiniteSubset
) -> Pattern:
    """Apply a block map to a source pattern covering ``support * f``."""
    out = {}
    for g in f:
        window = tuple(beta.value_at(ctx.mul(s, g)) for s in bmap.support)
        out[g] = bmap.apply_window(window)
    return Pattern.of(ctx, out)


# ---------------------------------------------------------------------------
# window minimality and essential freeness
# ---------------------------------------------------------------------------

class MinimalityResult(NamedTuple):
    holds: bool
    scanned: int
    window: Optional[Pattern]  # failing window, projected
    missing: Optional[Pattern]  # pattern it fails to visit


def is_minimal_at(
    ctx: GroupContext,
    spec: SpecLike,
    n: int,
    f: FiniteSubset,
    v: FiniteSubset,
    sem: Semantics,
) -> MinimalityResult:
    """Does every admissible ``v``-window visit every ``f``-pattern?

    Patterns are compared after truncation to the first ``n`` levels.  A
    counterexample is the first (in canonical order) ``v``-window missing
    some ``f``-pattern, together with the first missing pattern.
    """
    stack = spec.stack
    check_level(stack, n)
    targets = level_pattern_list(ctx, spec, f, n, sem)
    placements = []
    vset = v.as_set()
    for g in v:
        cells = [ctx.mul(x, g) for x in f]
        if all(c in vset for c in cells):
            placements.append((g, cells))
    if not placements:
        raise ValueError("window admits no placement of the probe domain")
    scanned = 0
    for u in window_patterns(ctx, spec, v, sem):
        scanned += 1
        proj = project_pattern(ctx, u, n, stack)
        seen = {
            Pattern.of(
                ctx, {x: proj.value_at(c) for x, c in zip(f.elements, cells)}
            )
            for _, cells in placements
        }
        for t in targets:
            if t not in seen:
                return MinimalityResult(False, scanned, proj, t)
    return MinimalityResult(True, scanned, None, None)


class FreenessWitness(NamedTuple):
    probe: Pattern
    window: Pattern
    site: object  # h with z(h*g) != z(h)
    radius: int


class FreenessReport(NamedTuple):
    holds: bool
    g: object
    witnesses: tuple
    failed_probe: Optional[Pattern]
    radius_cap: int


def essential_freeness_check(
    ctx: GroupContext,
    spec: SpecLike,
    g,
    probes: Iterable[Pattern],
    sem: Semantics,
    radius_cap: int = 4,
) -> FreenessReport:
    """Search, per probe cylinder, for an admissible window separating
    ``g``: some ``h`` with ``z(h g) != z(h)`` inside a window extending
    the probe.  Failure reports the probe whose windows all look
    ``g``-periodic up to the radius cap.
    """
    if g == ctx.identity:
        raise ValueError("essential freeness is about non-identity elements")
    if radius_cap < 0:
        raise ValueError(f"radius cap must be >= 0, got {radius_cap}")
    witnesses = []
    for probe in probes:
        found = None
        for r in range(radius_cap + 1):
            ball = ctx.ball(r)
            shifted = [ctx.mul(h, g) for h in ball]
            dom = FiniteSubset.of(
                ctx, list(probe.domain) + list(ball) + shifted
            )
            pairs = [
                (h, hg)
                for h, hg in zip(ball.elements, shifted)
            ]
            for w in window_patterns(ctx, spec, dom, sem):
                if not all(w.value_at(c) == v for c, v in probe.items()):
                    continue
                for h, hg in pairs:
                    if w.value_at(hg) != w.value_at(h):
                        found = FreenessWitness(probe, w, h, r)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            return FreenessReport(False, g, tuple(witnesses), probe, radius_cap)
        witnesses.append(found)
    return FreenessReport(True, g, tuple(witnesses), None, radius_cap)
