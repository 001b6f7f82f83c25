"""Gluing checks for separated domains, window feasibility, and
maximal-separated-set shifts.

A shift space is *D-irreducible at level n* when any two admissible
level-``n`` patterns whose domains are D-apart (their D-translates do
not meet) occur jointly in a single point.  ``check_irreducible``
decides this exhaustively at a finite scale.  Under exact semantics on
the rank-1 lattice the scan runs over interval domains through the
sliding-window automaton.  Apartness of two intervals is arithmetic:
``[0, l1)`` and ``[l1+gap, l1+gap+l2)`` are D-apart exactly when no
positive element of ``D - D`` lies in ``[gap+1, gap+l1+l2-1]``, so the
scan reads ``D - D`` once and bounds ``l1 + l2`` per gap.  A class
verdict depends only on the reachability behavior sets of its two
lengths and the gap.  Each direction's family of sets at one length
determines the family at the next, so the scan reads lengths only up to
the first repeated family; each gap decides every pair of sets that
co-occurs there once and counts its classes by arithmetic.  No class
fails from the mixing gap on, so class work stops there and only the
pair count stays linear in the scale.  A uniform reachability
certificate (``unconditional``) extends the verdict beyond the scanned
window.  Under local semantics the scan runs over ball
domains in any context and inherits the local approximation; each
translation class is decided by membership tests, and only classes that
one forbidden occurrence can join are searched, by per-side signatures on
the interface of the two thickened domains, built once per radius and
interface (or, where interfaces are too wide, one fill of the joint region
per pattern pair).

``conf`` returns the deterministic least joint extension of two
compatible patterns — the densification pipeline depends on this being
reproducible cell for cell; under exact semantics one transfer-graph
walk outward from the first free cell decides every letter it probes.
``window_fill`` is the one feasibility test for letter constraints on a
window under either semantics: ``conf`` extends it cell by cell, and
``is_admissible`` asks it once.  ``max_separated_subshift`` encodes
indicator functions of maximal D-separated sets as a finite-type
condition, together with the ball claimed to witness irreducibility.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple, Optional, Union

from .certificates import register_claim
from .groups import (
    FiniteSubset,
    GroupContext,
    set_inv,
    set_mul,
    symmetric_closure,
)
from .subshifts import (
    EXACT,
    GluingError,
    Pattern,
    Semantics,
    SftSpec,
    SpecLike,
    SubshiftError,
    TransferGraph,
    _LocalRegion,
    _bitrow_mul,
    _require_exact_ctx,
    check_level,
    hull_interval,
    level_pattern_list,
    pattern_set,
    project_letter,
    transfer_graph,
)


def level_preimages(spec: SftSpec, level: int) -> dict:
    """Full letters grouped by their truncation to the first ``level`` levels."""
    check_level(spec.stack, level)
    groups: dict = {}
    for a in spec.letters():
        groups.setdefault(project_letter(a, level, spec.stack), set()).add(a)
    return {v: frozenset(s) for v, s in groups.items()}


# ---------------------------------------------------------------------------
# exact interval engine
# ---------------------------------------------------------------------------

class _IntervalGluer:
    """Bitset reachability engine for interval-domain gluing on Z.

    Words at the checked level are grouped by two behaviors: the state
    set reachable after reading the word with a free left context
    (forward bits) and the state set from which the word can be read
    (entry bits).  Two words glue across a free gap of ``g`` cells iff
    some forward state reaches some entry state in exactly ``g`` steps,
    so each (length, gap, length) class needs one bit test per behavior
    pair instead of one per word pair.  Group representatives are the
    least words in each class, which keeps counterexamples canonical.
    A level letter steps the bits through ``TransferGraph.step`` over its
    full preimages, forward or back, and gap reachability reads the
    graph's cached powers.

    Whether a class holds depends only on its key: the set of forward
    bits at ``l1``, the gap and the set of entry bits at ``l2``.  The two
    sets do not depend on the gap, and each direction's distinct families
    first occur at lengths ``1..K``, where ``K + 1`` is the first length
    whose family repeats, so a gap's work does not grow with the scale.
    """

    def __init__(self, spec: SftSpec, level: int):
        self.tg = transfer_graph(spec)
        self.pre = level_preimages(spec, level)
        self.level_letters = tuple(sorted(self.pre))
        self._er: dict[int, tuple] = {0: ((self.tg.full, ()),)}
        self._en: dict[int, tuple] = {0: ((self.tg.full, ()),)}
        self._rows: dict = {}
        self._er_lengths, self._en_lengths = _NewLengths(), _NewLengths()

    def er_groups(self, length: int) -> tuple:
        """(forward bits, least word) per behavior class, words ascending."""
        top = len(self._er) - 1
        while top < length:
            new: dict[int, tuple] = {}
            for bits, rep in self._er[top]:
                for v in self.level_letters:
                    nb = self.tg.step(bits, self.pre[v])
                    if nb and nb not in new:
                        new[nb] = rep + (v,)
            top += 1
            self._er[top] = tuple(new.items())
        return self._er[length]

    def en_groups(self, length: int) -> tuple:
        """(entry bits, least word) per behavior class, words ascending."""
        top = len(self._en) - 1
        while top < length:
            new: dict[int, tuple] = {}
            for v in self.level_letters:
                for bits, rep in self._en[top]:
                    nb = self.tg.step(bits, self.pre[v], back=True)
                    if nb and nb not in new:
                        new[nb] = (v,) + rep
            top += 1
            self._en[top] = tuple(new.items())
        return self._en[length]

    def reach_row(self, er_bits: int, gap: int) -> int:
        key = (er_bits, gap)
        if key not in self._rows:
            self._rows[key] = _bitrow_mul(er_bits, self.tg.power(gap))
        return self._rows[key]

    def class_counterexample(
        self, l1: int, gap: int, l2: int
    ) -> Optional[tuple[tuple, tuple]]:
        """Least ungluable word pair for this domain class, if any."""
        for er_bits, rep1 in self.er_groups(l1):
            row = self.reach_row(er_bits, gap)
            for en_bits, rep2 in self.en_groups(l2):
                if row & en_bits == 0:
                    return rep1, rep2
        return None

    def first_failure(self, gap: int, span: int) -> Optional[tuple]:
        """First failing class ``(l1, l2, words)`` at ``gap`` with ``l1 + l2 <= span``.

        Each key pair that co-occurs at this gap is decided once, at the
        first lengths of its two sets, in ascending ``l1`` and then ``l2``.
        Every class before the first failing pair in scan order repeats a
        pair already decided, so that pair's lengths are the first failing
        class in scan order.
        """
        for l1 in self._er_lengths.upto(self.er_groups, span - 1):
            for l2 in self._en_lengths.upto(self.en_groups, span - l1):
                bad = self.class_counterexample(l1, gap, l2)
                if bad is not None:
                    return l1, l2, bad
        return None

    def joint_feasible(self, l1: int, gap: int, l2: int, w1, w2) -> bool:
        """Plain window feasibility recheck, bypassing the group engine."""
        allowed = {i: self.pre[a] for i, a in enumerate(w1)}
        allowed.update({l1 + gap + i: self.pre[a] for i, a in enumerate(w2)})
        return self.tg.feasible(l1 + gap + l2, allowed)


class _NewLengths:
    """Lengths ``1..K`` before the first whose family repeats, read lazily.

    ``upto(groups, limit)`` yields them up to ``limit``.  ``groups`` maps a
    length to its (bits, word) classes, and a length's family is its set
    of bit sets.  The family at ``l + 1`` is a function of the family at
    ``l``, so once a family repeats an earlier one no new family occurs:
    the lengths yielded are exactly the first lengths of the distinct
    families.  A length's family is built once, when the first call's
    loop reaches it, and kept for every later call with the same
    ``groups``.
    """

    def __init__(self):
        self.seen: set = set()
        self.known = 0  # lengths 1..known hold distinct families
        self.repeated = False  # the family at known + 1 repeats one

    def upto(self, groups, limit: int):
        for length in range(1, limit + 1):
            if length > self.known:
                if self.repeated:
                    return
                family = frozenset(bits for bits, _ in groups(length))
                if family in self.seen:
                    self.repeated = True
                    return
                self.seen.add(family)
                self.known = length
            yield length


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class GluingCounterexample(NamedTuple):
    """Two admissible patterns on D-apart domains with no joint point."""

    first: Pattern
    second: Pattern
    gap: Optional[int]  # free cells between interval hulls (exact mode)

    def to_json(self, ctx: GroupContext) -> dict:
        return {
            "first": self.first.to_json(ctx),
            "second": self.second.to_json(ctx),
            "gap": self.gap,
        }


class IrreducibilityReport(NamedTuple):
    holds: bool
    level: int
    scale: int
    semantics: str
    method: str
    pairs_checked: int
    min_gap: Optional[int]  # least interval gap that is D-apart (exact)
    mixing_gap: Optional[int]  # least uniform reachability length (exact)
    unconditional: bool  # verdict certified for every scale
    counterexample: Optional[GluingCounterexample]

    def to_json(self, ctx: GroupContext) -> dict:
        return {
            "holds": self.holds,
            "level": self.level,
            "scale": self.scale,
            "semantics": self.semantics,
            "method": self.method,
            "pairs_checked": self.pairs_checked,
            "min_gap": self.min_gap,
            "mixing_gap": self.mixing_gap,
            "unconditional": self.unconditional,
            "counterexample": (
                None
                if self.counterexample is None
                else self.counterexample.to_json(ctx)
            ),
        }


def _positive_differences(d: FiniteSubset) -> list[int]:
    """The positive elements of ``D - D`` on Z, ascending."""
    xs = {g[0] for g in d}
    return sorted({x - y for x in xs for y in xs if x > y})


def _apart_span(diffs: list[int], gap: int) -> Optional[int]:
    """Largest ``l1 + l2`` at which ``[0, l1)`` and ``[l1+gap, l1+gap+l2)``
    are D-apart, or None when every length pair is.

    ``diffs`` is ``_positive_differences(d)``.  The D-translates meet
    exactly when some difference lies in ``[gap+1, gap+l1+l2-1]``, so the
    bound is the least difference above ``gap``, minus ``gap``.
    """
    i = bisect_right(diffs, gap)
    return diffs[i] - gap if i < len(diffs) else None


def _min_apart_gap(diffs: list[int]) -> int:
    """Least free gap at which two singleton intervals are D-apart."""
    present = set(diffs)
    gap = 0
    while gap + 1 in present:
        gap += 1
    return gap


def _check_irreducible_exact(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    d: FiniteSubset,
    scale: int,
) -> IrreducibilityReport:
    engine = _IntervalGluer(spec, level)
    tg = engine.tg
    width = 2 * scale + 1
    diffs = _positive_differences(d)
    min_gap = _min_apart_gap(diffs)
    # Least n at which every state reaches every state in exactly n steps;
    # None on an empty graph, where all() over no rows would read as full,
    # or once a matrix repeats, as power(n + 1) is a function of power(n).
    mixing, seen = None, set()
    for n in range(1, max(width, min_gap + 1) + 1):
        rows = tuple(tg.power(n))
        if not rows or rows in seen:
            break
        if all(r == tg.full for r in rows):
            mixing = n
            break
        seen.add(rows)
    pairs = 0
    found = None
    # The apart classes at a gap are those with l1 + l2 <= span.  A gap
    # decides only its distinct key pairs and counts its classes by
    # arithmetic.  From the mixing gap on no class fails, so only the pair
    # count goes on there.  The graph is trimmed (every state has an
    # in-edge and an out-edge), so once power(n) is all ones, power(n + 1)
    # = power(n) * A is too.  er_groups and en_groups keep only non-zero
    # bit sets, so reach_row(er_bits, gap) & en_bits is then non-zero for
    # every class and first_failure would return None.  The mixing search
    # reaches past every gap below width - 1, so with mixing None no gap
    # is skipped.
    for gap in range(width - 1):
        span = _apart_span(diffs, gap)
        span = width - gap if span is None else min(span, width - gap)
        bad = engine.first_failure(gap, span) if mixing is None or gap < mixing else None
        if bad is None:
            pairs += span * (span - 1) // 2
            continue
        l1, l2, words = bad
        # rows 1..l1-1 hold span - l1' classes each, then l2 in row l1
        pairs += (l1 - 1) * span - l1 * (l1 - 1) // 2 + l2
        found = (l1, gap, l2, words)
        break

    counterexample = None
    if found:
        l1, gap, l2, (w1, w2) = found
        if engine.joint_feasible(l1, gap, l2, w1, w2):
            raise RuntimeError("group engine and window recheck disagree")
        a1 = -scale
        a2 = a1 + l1 + gap
        counterexample = GluingCounterexample(
            first=Pattern.of(ctx, {(a1 + i,): v for i, v in enumerate(w1)}),
            second=Pattern.of(ctx, {(a2 + i,): v for i, v in enumerate(w2)}),
            gap=gap,
        )

    holds = found is None
    unconditional = holds and all(r == tg.full for r in tg.power(min_gap))
    return IrreducibilityReport(
        holds=holds,
        level=level,
        scale=scale,
        semantics="exact",
        method="interval-transfer",
        pairs_checked=pairs,
        min_gap=min_gap,
        mixing_gap=mixing,
        unconditional=unconditional,
        counterexample=counterexample,
    )


# radii of the ball domains the local scan glues, ascending
_DOMAIN_RADII = (0, 1)


def _check_irreducible_local(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    d: FiniteSubset,
    scale: int,
    sem: Semantics,
) -> IrreducibilityReport:
    pre = level_preimages(spec, level)
    radii = _DOMAIN_RADII
    base = {rho: level_pattern_list(ctx, spec, ctx.ball(rho), level, sem) for rho in radii}
    centers = ctx.ball(scale).elements
    margin = ctx.ball(sem.margin)
    narrow = {v: tuple(sorted(s)) for v, s in pre.items()}
    # relative positions b * a^-1 of two cells of one forbidden domain
    joins = FiniteSubset.of(
        ctx, (ctx.mul(b, ctx.inv(a)) for p in spec.forbidden for a in p.domain for b in p.domain)
    )
    cores = (
        set_mul(ctx, set_inv(ctx, d), d),
        set_mul(ctx, set_mul(ctx, margin, joins), margin),
    )

    def report(pairs: int, counterexample) -> IrreducibilityReport:
        return IrreducibilityReport(
            holds=counterexample is None,
            level=level,
            scale=scale,
            semantics=sem.describe(),
            method="ball-local",
            pairs_checked=pairs,
            min_gap=None,
            mixing_gap=None,
            unconditional=False,
            counterexample=counterexample,
        )

    # The SFT and apartness are invariant under right translation, so a
    # pair's verdict depends only on its class (r1, r2, x), x = c2 * c1^-1,
    # decided with ball(r1) at the origin and ball(r2) at ball(r2) * x.
    # Two sets per radius pair, ball(r2)^-1 * core * ball(r1) for the two
    # cores above, built on first use, decide most classes:
    #   near: the x whose domains are not D-apart, ball(r2)^-1 D^-1 D ball(r1);
    #   touch: the x at which one forbidden occurrence can meet both
    #     margin-thickened domains, ball(r2)^-1 M^-1 K M ball(r1), with
    #     M = ball(margin) and K = joins.  Balls are symmetric, so
    #     ball(r2)^-1 = ball(r2) and M^-1 = M.
    # An apart class outside touch holds with no search.  Under local(m)
    # each listed pattern extends on M * its domain by itself, since
    # level_pattern_list keeps only those.  With nothing forbidden any two
    # disjoint patterns glue; otherwise e lies in K, so outside touch the
    # two thickened domains are disjoint and no forbidden occurrence meets
    # both, and the two fills together fill the joint region.  A searched
    # class met again has glued: the first failure ends the scan.
    sets: dict = {}
    searched: set = set()
    sides = _SideSignatures(ctx, spec, narrow, sem, base)
    pairs = 0
    for i, r1 in enumerate(radii):
        for j, c1 in enumerate(centers):
            c1_inv = ctx.inv(c1)
            for r2 in radii[i:]:
                if (r1, r2) not in sets:
                    sets[r1, r2] = tuple(
                        set_mul(ctx, set_mul(ctx, ctx.ball(r2), core), ctx.ball(r1))
                        for core in cores
                    )
                near, touch = sets[r1, r2]
                for c2 in centers[j:] if r2 == r1 else centers:
                    x = ctx.mul(c2, c1_inv)
                    if x in near:
                        continue
                    pairs += 1
                    if x not in touch or (r1, r2, x) in searched:
                        continue
                    searched.add((r1, r2, x))
                    bad = sides.first_unglued((r1, r2, x))
                    if bad is not None:
                        q1, q2 = bad
                        return report(pairs, GluingCounterexample(
                            q1.translate(ctx, c1_inv), q2.translate(ctx, ctx.inv(c2)), None
                        ))
    return report(pairs, None)


# signature fills a class may always build: two-letter specs with one-step
# forbidden domains have interfaces of at most three cells, so 17 patterns
# on a radius-1 side cost 136 fills, and later classes reuse them
_FEW_FILLS = 256


class _SideSignatures:
    """Per-scan gluing decisions through the interface of two thickened sides.

    Class ``(r1, r2, x)`` has sides ``T_r1`` and ``B = T_r2 * x``, with
    ``T_r = M * ball(r)``.  An occurrence inside ``T_r1 | B`` lies in
    ``T_r1``, in ``B``, or crosses; the interface holds the crossing cells
    and ``T_r1 & B``.  A pattern's signature is the set of fills of its
    side's interface cells (origin coordinates) that extend to an
    admissible fill of ``T_r``.  Two patterns glue iff some fills of their
    signatures agree on ``T_r1 & B`` and complete no crossing occurrence.
    A class whose interfaces have too many fills (wide overlaps, large
    alphabets) is decided by one search of its joint region per pair.
    ``narrow`` maps level letters to full letters; ``base[r]`` lists the
    patterns on ``ball(r)`` in scan order.
    """

    def __init__(self, ctx, spec, narrow, sem, base):
        self.ctx, self.spec, self.narrow, self.sem, self.base = ctx, spec, narrow, sem, base
        self._sides: dict = {}
        self._sigs: dict = {}

    def side(self, r: int) -> tuple:
        """``T_r`` in ball order, as a set, and the (cell, letter) tuples of
        the occurrences that meet it without lying inside it."""
        if r not in self._sides:
            ctx = self.ctx
            cells = ctx.ball(self.sem.margin + r).elements
            inside = set(cells)
            bound = []
            for p in self.spec.forbidden:
                items = tuple(p.items())
                for t in dict.fromkeys(ctx.mul(ctx.inv(h), c) for h, _ in items for c in cells):
                    occ = tuple((ctx.mul(h, t), v) for h, v in items)
                    if any(g not in inside for g, _ in occ):
                        bound.append(occ)
            self._sides[r] = (cells, inside, bound)
        return self._sides[r]

    def signatures(self, r: int, interface: tuple) -> tuple:
        """Each ``base[r]`` pattern's fills of ``interface`` (cells of ``T_r``)."""
        key = (r, interface)
        if key not in self._sigs:
            first = set(interface)
            rest = (g for g in self.side(r)[0] if g not in first)
            region = _LocalRegion(self.ctx, self.spec, (*interface, *rest))
            at = [region.index[g] for g in self.ctx.ball(r)]
            n = len(interface)
            sigs = []
            for q in self.base[r]:
                choices = region.choices()
                for k, v in zip(at, q.values):
                    choices[k] = self.narrow[v]
                sigs.append(frozenset(
                    tuple(vals[:n])
                    for vals in region.search([None] * len(region.cells), choices, 0, n)
                    if region.extends(vals, choices, n)
                ))
            self._sigs[key] = tuple(sigs)
        return self._sigs[key]

    def first_unglued(self, cls: tuple) -> Optional[tuple[Pattern, Pattern]]:
        """First pattern pair, in scan order, with no joint fill of the class region.

        ``cls`` is ``(r1, r2, x)``: ``base[r1]`` lies on ``ball(r1)`` at the
        origin and ``base[r2]`` on ``ball(r2) * x`` (each pattern's values
        follow its ball's element order).
        """
        r1, r2, x = cls
        cells1, in1, bound1 = self.side(r1)
        home = {self.ctx.mul(g, x): g for g in self.side(r2)[0]}  # B -> T_r2
        crossing = [
            occ for occ in bound1
            if all(g in in1 or g in home for g, _ in occ)
            and not all(g in home for g, _ in occ)
        ]
        cut = {g for occ in crossing for g, _ in occ} | in1.intersection(home)
        j1 = tuple(g for g in cells1 if g in cut)
        cut2 = {home[h] for h in cut if h in home}
        j2 = tuple(g for g in self.side(r2)[0] if g in cut2)
        # A side's signatures cost up to one fill of T_r per pattern and
        # interface fill, the pair search one fill of the joint region per
        # pair; take the signatures unless the unbuilt ones cost more than
        # both the pairs and _FEW_FILLS.
        letters = len(self.spec.letters())
        b1, b2 = self.base[r1], self.base[r2]
        fills = sum(
            len(self.base[r]) * letters ** len(j)
            for r, j in {(r1, j1), (r2, j2)} if (r, j) not in self._sigs
        )
        if fills > max(_FEW_FILLS, len(b1) * len(b2)):
            return self._search_pairs(cls)
        pos = {g: i for i, g in enumerate(j1)}
        pos2 = {g: i for i, g in enumerate(j2)}
        same = [(pos[h], pos2[home[h]]) for h in j1 if h in home]
        # a crossing cell outside T_r1 reads the second side's fill
        pos.update((h, len(j1) + pos2[home[h]]) for h in cut if h not in in1)
        checks = [tuple((pos[g], v) for g, v in occ) for occ in crossing]
        sigs1 = self.signatures(r1, j1)
        sigs2 = self.signatures(r2, j2)
        fails = {
            (s1, s2) for s1 in set(sigs1) for s2 in set(sigs2)
            if not _glues(s1, s2, same, checks)
        }
        if not fails:
            return None
        for q1, s1 in zip(b1, sigs1):
            for q2, s2 in zip(b2, sigs2):
                if (s1, s2) in fails:
                    return q1, q2
        return None

    def _search_pairs(self, cls: tuple) -> Optional[tuple[Pattern, Pattern]]:
        """``first_unglued`` by one search of the joint region per pair."""
        ctx, (r1, r2, x) = self.ctx, cls
        at1 = ctx.ball(r1).elements
        at2 = [ctx.mul(g, x) for g in ctx.ball(r2)]
        joint = FiniteSubset.of(ctx, (*at1, *at2))
        region = _LocalRegion(ctx, self.spec, set_mul(ctx, ctx.ball(self.sem.margin), joint))
        for q1 in self.base[r1]:
            half = {g: self.narrow[v] for g, v in zip(at1, q1.values)}
            for q2 in self.base[r2]:
                allowed = dict(half)
                allowed.update((g, self.narrow[v]) for g, v in zip(at2, q2.values))
                if not _RegionFill(region, allowed).feasible:
                    return q1, q2
        return None


def _glues(sig1: frozenset, sig2: frozenset, same: list, checks: list) -> bool:
    """Do two fills agree at the ``same`` position pairs and, joined, match
    no occurrence in ``checks`` ((position, letter) pairs)?"""
    by_shared: dict = {}
    for b in sig2:
        by_shared.setdefault(tuple(b[j] for _, j in same), []).append(b)
    for a in sig1:
        for b in by_shared.get(tuple(a[i] for i, _ in same), ()):
            w = a + b
            if not any(all(w[k] == v for k, v in occ) for occ in checks):
                return True
    return False


def check_irreducible(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    d: FiniteSubset,
    scale: int,
    sem: Semantics = EXACT,
) -> IrreducibilityReport:
    """Exhaustively test gluing of level patterns on D-apart domains.

    Exact semantics scans every interval-domain class inside
    ``ball(scale)`` (gluability is translation invariant, so classes
    stand for all placements).  Local semantics scans ball domains
    ``ball(rho) * c`` for ``rho`` in 0 and 1 and centers in
    ``ball(scale)``.  The report carries the first counterexample in
    deterministic order when the check fails.
    """
    if not isinstance(spec, SftSpec):
        raise SubshiftError("gluing checks need a finite-type presentation")
    if len(d) == 0:
        raise ValueError("the separation set must be non-empty")
    if scale < 1:
        raise ValueError("scale must be >= 1")
    level_preimages(spec, level)  # validates the level
    if sem.mode == "exact":
        _require_exact_ctx(ctx)
        return _check_irreducible_exact(ctx, spec, level, d, scale)
    return _check_irreducible_local(ctx, spec, level, d, scale, sem)


class WitnessSearch(NamedTuple):
    """Outcome of scanning ball radii for an irreducibility witness."""

    found: bool
    radius: Optional[int]
    witness: Optional[FiniteSubset]
    trail: tuple  # (radius, holds) in scan order
    final: IrreducibilityReport


def irreducibility_witness_search(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    radii: Iterable[int],
    scale: int,
    sem: Semantics = EXACT,
) -> WitnessSearch:
    """Scan ``ball(r)`` for ascending ``r`` until one witnesses gluing."""
    trail = []
    final = None
    for r in sorted(set(radii)):
        report = check_irreducible(ctx, spec, level, ctx.ball(r), scale, sem)
        trail.append((r, report.holds))
        final = report
        if report.holds:
            return WitnessSearch(True, r, ctx.ball(r), tuple(trail), report)
    if final is None:
        raise ValueError("at least one radius is required")
    return WitnessSearch(False, None, None, tuple(trail), final)


# ---------------------------------------------------------------------------
# the deterministic gluing function
# ---------------------------------------------------------------------------

class _IntervalFill:
    """A window on Z filled cell by cell: one outward transfer-graph walk.

    Hull position ``p`` is the step from node ``p`` to node ``p + 1`` of a
    path of the trimmed graph, which may start in any state (see
    ``TransferGraph.feasible``).  ``pre[k]`` holds the states the clamps
    before node ``k`` reach, ``post[k]`` those from which the clamps from
    node ``k`` on can be met.  Each is walked once, ``post`` when the first
    cell is probed or fixed, so a caller that reads ``feasible`` alone
    walks the hull once.

    Fixed cells fill the positions ``[start, stop)``, which must grow by
    one end per fixed cell, as Z's order ``(|n|, n)`` grows them.
    ``rel[i]`` holds the states at ``stop`` that entry state ``i`` at
    ``start`` reaches through that interval and from which the clamps
    after it can be met (0 when ``i`` is no live entry).  A cell past
    ``stop`` is probed forward from the union of the exits, a cell before
    ``start`` backward from the live entries, so no probe walks the hull
    again; fixing a letter steps every entry across the positions joined.
    """

    def __init__(self, tg: TransferGraph, f: FiniteSubset, clamps: dict):
        self.tg = tg
        self.lo, hi = hull_interval(f)
        self.clamps = [None] * (hi - self.lo + 1)
        for g, lset in clamps.items():
            self.clamps[g[0] - self.lo] = lset
        self.pre = [tg.full]
        for lset in self.clamps:
            self.pre.append(tg.step(self.pre[-1], lset))
        self.feasible = bool(self.pre[-1])
        self.post: list[int] = []
        self.start = self.stop = None
        self.rel: list[int] = []

    def _walk(self, mask: int, start: int, stop: int, back: bool = False) -> int:
        """``mask`` across the clamps at positions ``[start, stop)``."""
        span = range(start, stop)
        for q in reversed(span) if back else span:
            mask = self.tg.step(mask, self.clamps[q], back)
        return mask

    def _joins_right(self, p: int) -> bool:
        """Does position ``p`` join the fixed cells past ``stop`` (else before
        ``start``)?  The first cell probed opens the interval there and
        walks the hull backward for ``post``, which only probes and fixes
        read."""
        if self.start is None:
            post = [self.tg.full]
            for lset in reversed(self.clamps):
                post.append(self.tg.step(post[-1], lset, back=True))
            self.post = post[::-1]
            self.start = self.stop = p
            live = self.pre[p] & self.post[p]
            self.rel = [live & 1 << i for i in range(len(self.tg.states))]
        if self.start <= p < self.stop:
            raise ValueError(f"cell {p + self.lo} lies inside the fixed cells")
        return p >= self.stop

    def admits(self, cell, lset) -> bool:
        """Do the clamps and fixed cells admit ``cell`` taking its letter in ``lset``?"""
        p = cell[0] - self.lo
        step = self.tg.step
        if self._joins_right(p):
            exits = self._walk(_bitrow_mul(self.tg.full, self.rel), self.stop, p)
            return bool(step(exits, lset) & self.post[p + 1])
        entries = sum(1 << i for i, x in enumerate(self.rel) if x)
        return bool(step(self.pre[p], lset) & self._walk(entries, p + 1, self.start, True))

    def fix(self, cell, lset) -> None:
        """Hold ``cell`` to ``lset`` from now on."""
        p = cell[0] - self.lo
        step = self.tg.step
        if self._joins_right(p):
            post = self.post[p + 1]
            self.rel = [
                step(self._walk(x, self.stop, p), lset) & post if x else 0
                for x in self.rel
            ]
            self.stop = p + 1
        else:
            live = self.pre[p]
            self.rel = [
                _bitrow_mul(self._walk(step(1 << i, lset), p + 1, self.start), self.rel)
                if live >> i & 1 else 0
                for i in range(len(self.rel))
            ]
            self.start = p


class _RegionFill:
    """A window under ``local(m)`` filled cell by cell: each probe asks for
    an admissible fill of the compiled region ``ball(m) * f``."""

    def __init__(self, region: _LocalRegion, clamps: dict):
        self.region = region
        self.choices = region.choices(clamps)
        self.feasible = self._extends()

    def _extends(self) -> bool:
        return self.region.extends([None] * len(self.region.cells), self.choices)

    def admits(self, cell, lset) -> bool:
        """Do the clamps and fixed cells admit ``cell`` taking its letter in ``lset``?"""
        i = self.region.index[cell]
        kept, self.choices[i] = self.choices[i], self.region.among(lset)
        ok = self._extends()
        self.choices[i] = kept
        return ok

    def fix(self, cell, lset) -> None:
        """Hold ``cell`` to ``lset`` from now on."""
        self.choices[self.region.index[cell]] = self.region.among(lset)


def window_fill(
    ctx: GroupContext, spec: SftSpec, f: FiniteSubset, sem: Semantics, clamps: dict
) -> Union[_IntervalFill, _RegionFill]:
    """Letter constraints on ``f``, extended one cell at a time.

    ``clamps`` maps cells of ``f`` to letter sets.  The result's
    ``feasible`` says whether some admissible pattern on ``f`` meets them,
    ``admits(cell, lset)`` whether one still does with ``cell`` held to
    ``lset`` as well, and ``fix(cell, lset)`` holds it there.  Free cells
    are probed and fixed in the context's order.  Exact semantics relies
    on that order: on Z the fixed cells then fill an interval of the hull
    that grows by one end per cell, so one walk outward from the first
    fixed cell decides every probe without walking the hull again
    (``_IntervalFill``).  Under ``local(m)`` each probe is one fill of
    ``ball(m) * f``.  Letters outside the alphabet satisfy neither.  This
    is the one place that turns letter constraints on a window into a
    feasibility decision; :func:`is_admissible` reads ``feasible`` alone.
    """
    if sem.mode == "exact":
        _require_exact_ctx(ctx)
        return _IntervalFill(transfer_graph(spec), f, clamps)
    region = _LocalRegion(ctx, spec, set_mul(ctx, ctx.ball(sem.margin), f))
    return _RegionFill(region, clamps)


def is_admissible(
    ctx: GroupContext, spec: SpecLike, pattern: Pattern, sem: Semantics
) -> bool:
    """Window-scale admissibility of a (possibly scattered) pattern."""
    if len(pattern.domain) == 0:
        return True
    if isinstance(spec, SftSpec):
        clamps = {g: (v,) for g, v in pattern.items()}
        return window_fill(ctx, spec, pattern.domain, sem, clamps).feasible
    return pattern in pattern_set(ctx, spec, pattern.domain, sem)


def _merged_clamps(alpha1: Pattern, alpha2: Pattern, f: FiniteSubset) -> dict:
    fset = f.as_set()
    for p in (alpha1, alpha2):
        stray = [g for g in p.domain if g not in fset]
        if stray:
            raise ValueError(f"pattern cell {stray[0]!r} lies outside the target domain")
    merged = alpha1.mapping()
    for g, v in alpha2.items():
        if merged.get(g, v) != v:
            raise GluingError(f"patterns disagree at {g!r}")
        merged[g] = v
    return merged


def conf(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    f: FiniteSubset,
    alpha1: Pattern,
    alpha2: Pattern,
    sem: Semantics = EXACT,
) -> Pattern:
    """The least admissible level-``level`` extension of two patterns on ``f``.

    Free cells are filled in the context's deterministic order, always
    taking the least level letter that keeps the window completable, so
    the result is reproducible across runs and machines — every
    downstream construction that needs "some joint extension" takes this
    one.  One :func:`window_fill` answers the probes
    under either semantics.  Under exact semantics it leans on Z's order
    ``(|n|, n)``: the cells fixed so far fill an interval of the hull that
    grows by one end per cell, so a single transfer-graph walk outward
    from the first free cell decides every probe, linear in the window.
    Raises ``GluingError`` when no joint extension exists, which callers
    should read as an invalid irreducibility witness at this scale.
    """
    if not isinstance(spec, SftSpec):
        raise SubshiftError("gluing needs a finite-type presentation")
    pre = level_preimages(spec, level)
    level_letters = tuple(sorted(pre))
    merged = _merged_clamps(alpha1, alpha2, f)
    for g, v in merged.items():
        if v not in pre:
            raise SubshiftError(f"{v!r} is not a level-{level} letter")
    fill = window_fill(ctx, spec, f, sem, {g: pre[v] for g, v in merged.items()})
    if not fill.feasible:
        raise GluingError("the two patterns admit no joint extension")
    values = dict(merged)
    for cell in f:
        if cell in merged:
            continue
        for v in level_letters:
            if fill.admits(cell, pre[v]):
                fill.fix(cell, pre[v])
                values[cell] = v
                break
        else:
            raise RuntimeError("feasible window lost during gluing")
    return Pattern.of(ctx, values)


# ---------------------------------------------------------------------------
# maximal-separated-set subshift
# ---------------------------------------------------------------------------

def irreducibility_envelope(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    d: FiniteSubset,
    scale: int,
    sem: Semantics = EXACT,
) -> dict:
    """Certificate envelope for :func:`check_irreducible` (rebuildable)."""
    report = check_irreducible(ctx, spec, level, d, scale, sem)
    return _GLUING_CLAIM.envelope(
        (ctx, spec, level, d, scale, sem),
        scale,
        report.holds,
        {"report": report.to_json(ctx)},
    )


_GLUING_CLAIM = register_claim(
    "irreducible-gluing", "irreducibility",
    (("group", "group"), ("spec", "sft"), ("level", "int"), ("domain", "subset"),
     ("scale", "int"), ("semantics", "semantics")),
    lambda *inputs: irreducibility_envelope(*inputs),
)


def max_separated_subshift(
    ctx: GroupContext, d: FiniteSubset
) -> tuple[SftSpec, FiniteSubset]:
    """Indicators of maximal D-separated sets, as a finite-type condition.

    ``d`` is symmetrized internally.  A 0/1 point is admissible iff its
    support is D-separated (no two distinct support points have meeting
    D-translates: no pair of ones at a relative position in ``D * D``
    minus the identity) and maximal (every element is D²-covered: no
    all-zero window on ``D * D``).  Returns the presentation together
    with the ball ``D³`` claimed to witness irreducibility at level 1;
    run ``check_irreducible`` to validate the claim at a chosen scale.
    """
    ds = symmetric_closure(ctx, d)
    return max_separated_spec(ctx, d), set_mul(ctx, set_mul(ctx, ds, ds), ds)


def max_separated_spec(ctx: GroupContext, d: FiniteSubset) -> SftSpec:
    """The presentation :func:`max_separated_subshift` returns, without
    building its witness ball."""
    if len(d) == 0:
        raise ValueError("the separation set must be non-empty")
    e = ctx.identity
    ds = symmetric_closure(ctx, d)
    diffs = set_mul(ctx, ds, ds)
    forbidden = [
        Pattern.of(ctx, {e: 1, k: 1}) for k in diffs if k != e
    ]
    forbidden.append(Pattern.of(ctx, {g: 0 for g in diffs}))
    return SftSpec(
        group=ctx.describe(),
        alphabet_sizes=(2,),
        forbidden=tuple(forbidden),
        name="max_separated_indicator",
    )
