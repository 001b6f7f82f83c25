"""Headline constructions on top of the gluing machinery.

Products and padding lift finite-type presentations to stacked alphabets.
The displaying-marker machinery rewrites an arbitrary point near a sparse
separated marker set: each marker carries a fixed stamp ``u`` that shows
every admissible window pattern, a collar around the stamp is re-glued
with :func:`~symdyn.irreducibility.conf`, and everything far from markers
is left untouched.  Densification, small-set shattering and the
finite-group equivariant variant are all instances of this rewrite with
different marker sets.

Builders construct, verifiers re-check: every certificate emitted here is
recomputed from its raw inputs through its declared claim record, so
stored verdicts and evidence are never trusted.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from collections import Counter
from math import isqrt
from typing import Callable, Optional

from .certificates import register_claim
from .configurations import (
    Configuration,
    indicator_configuration,
    periodic_configuration,
)
from .groups import (
    FiniteGroupContext,
    FiniteSubset,
    GroupContext,
    LatticeContext,
    SmallnessReport,
    is_small,
    parse_group,
)
from .irreducibility import (
    check_irreducible,
    conf,
    is_admissible,
    level_preimages,
    max_separated_spec,
    window_fill,
)
from .subshifts import (
    EXACT,
    Pattern,
    Semantics,
    SftSpec,
    SubshiftError,
    _normalized_forbidden,
    _require_exact_ctx,
    check_level,
    essential_freeness_check,
    hull_interval,
    letter_coords,
    level_pattern_list,
    make_letter,
    project_letter,
    transfer_graph,
)


class ConstructionError(RuntimeError):
    """A construction's preconditions failed or its search ran out."""


class SmallnessRejected(ConstructionError):
    """Shattering refused: the target set fails the smallness gate."""

    def __init__(self, message: str, report: SmallnessReport) -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# products, padding, images
# ---------------------------------------------------------------------------

def product_spec(spec_a: SftSpec, spec_b: SftSpec, name: str = "") -> SftSpec:
    """Stacked product: letters concatenate, forbidden patterns lift.

    A pattern forbidden on one side stays forbidden jointly with every
    choice of letters on the other side, so admissible points of the
    product are exactly the pairs of admissible points.
    """
    if not isinstance(spec_a, SftSpec) or not isinstance(spec_b, SftSpec):
        raise SubshiftError("products need finite-type presentations")
    if spec_a.group != spec_b.group:
        raise SubshiftError(
            f"product factors live on different groups: "
            f"{spec_a.group!r} vs {spec_b.group!r}"
        )
    ctx = parse_group(spec_a.group)
    sizes = spec_a.alphabet_sizes + spec_b.alphabet_sizes
    forbidden = []
    for own, other, own_first in ((spec_a, spec_b, True), (spec_b, spec_a, False)):
        for p in own.forbidden:
            cells = p.domain.elements
            mine = [letter_coords(p.value_at(c), own.stack) for c in cells]
            for fill in itertools.product(other.letters(), repeat=len(cells)):
                theirs = [letter_coords(w, other.stack) for w in fill]
                forbidden.append(
                    Pattern.of(
                        ctx,
                        {
                            c: make_letter(x + y if own_first else y + x)
                            for c, x, y in zip(cells, mine, theirs)
                        },
                    )
                )
    prod_name = name or "x".join(n for n in (spec_a.name, spec_b.name) if n)
    return SftSpec(spec_a.group, sizes, tuple(forbidden), prod_name)


def pad_free(
    spec: SftSpec, levels: int = 1, alphabet: int = 2, name: str = ""
) -> SftSpec:
    """Product with unconstrained extra levels (freeness padding)."""
    if levels < 1 or alphabet < 2:
        raise ValueError("padding needs at least one extra level on two letters")
    free = SftSpec(spec.group, (alphabet,) * levels, (), "free")
    default = f"{spec.name}+free" if spec.name else "padded"
    return product_spec(spec, free, name or default)


def freeness_envelope(
    ctx: GroupContext,
    spec: SftSpec,
    g,
    sem: Semantics = EXACT,
    radius_cap: int = 4,
) -> dict:
    """Certificate that ``g`` separates points inside every letter cylinder.

    Probes are the single-cell cylinders; the underlying check looks for an
    admissible window extending each probe on which translating by ``g``
    changes some value.  Failure pins the probe whose windows all look
    ``g``-periodic up to the radius cap.
    """
    if not isinstance(spec, SftSpec):
        raise SubshiftError("freeness certificates need a finite-type presentation")
    probes = [Pattern.of(ctx, {ctx.identity: a}) for a in spec.letters()]
    report = essential_freeness_check(ctx, spec, g, probes, sem, radius_cap)
    evidence = {
        "witnesses": [
            {
                "probe": w.probe.to_json(ctx),
                "window": w.window.to_json(ctx),
                "site": ctx.element_to_json(w.site),
                "radius": w.radius,
            }
            for w in report.witnesses
        ],
        "failed_probe": (
            None
            if report.failed_probe is None
            else report.failed_probe.to_json(ctx)
        ),
    }
    return _FREENESS_CLAIM.envelope(
        (ctx, spec, g, sem, radius_cap), radius_cap, report.holds, evidence
    )


_FREENESS_CLAIM = register_claim(
    "essential-freeness", "constructions",
    (("group", "group"), ("spec", "sft"), ("g", "element"), ("semantics", "semantics"),
     ("radius_cap", "int")),
    lambda *inputs: freeness_envelope(*inputs),
)


# ---------------------------------------------------------------------------
# displaying stamps and marker densification
# ---------------------------------------------------------------------------

def _stamp_core(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    f: FiniteSubset,
    witness_scale: int,
    sem: Semantics,
    max_v_radius: int,
) -> tuple[int, Pattern]:
    """Least ball V with a stamp showing every window pattern in a slot.

    A slot is a position ``k`` with ``F k`` inside V; the stamp is the
    canonically least admissible V-pattern whose slots jointly show every
    admissible F-pattern (see :func:`_least_stamp`).  A radius with fewer
    slots than window patterns holds no stamp and is skipped.  V must
    additionally pass the gluing check.  Under exact semantics the check
    runs at scale ``max(witness_scale, 5r)``, so its windows are as wide
    as the V^5 collar fills (``10r + 1`` cells) that :func:`verify_phi`
    re-glues around every stamp; local semantics checks at
    ``witness_scale``.  Returns ``(v_radius, stamp)``.
    """
    pats = level_pattern_list(ctx, spec, f, level, sem)
    if len(pats) < 2:
        raise ConstructionError(
            "densification needs at least two window patterns to show"
        )
    for r in range(max_v_radius + 1):
        v = ctx.ball(r)
        if not all(g in v for g in f):
            continue
        # The cells of each slot, in window order: a candidate shows the
        # value tuples it reads there, and each window pattern's values
        # (aligned with the sorted window) must be among them.
        slot_cells = [
            [ctx.mul(x, k) for x in f]
            for k in v
            if all(ctx.mul(x, k) in v for x in f)
        ]
        if len(slot_cells) < len(pats):
            continue
        stamp = _least_stamp(ctx, spec, level, v, sem, slot_cells, pats)
        if stamp is None:
            continue
        scale = max(witness_scale, 5 * r) if sem.mode == "exact" else witness_scale
        if check_irreducible(ctx, spec, level, v, scale, sem).holds:
            return r, stamp
    raise ConstructionError(
        f"no displaying ball up to radius {max_v_radius} shows all "
        f"{len(pats)} window patterns and verifies gluing"
    )


def _least_stamp(ctx: GroupContext, spec: SftSpec, level: int, v: FiniteSubset,
                 sem: Semantics, slot_cells: list, pats: list) -> Optional[Pattern]:
    """The least admissible level-``level`` V-pattern whose slots show every
    pattern of ``pats``, or None.

    A depth-first search assigns V's cells in V's order, least level
    letters first, so the first full assignment it reaches is the least
    in the canonical order.  A prefix is cut when :func:`window_fill` finds
    no admissible pattern meeting it, or when the window patterns no
    finished slot shows outnumber the slots still open (each slot shows
    one pattern).  The search keeps a stack of letter iterators, one per
    assigned cell, rather than recursing: V may hold over a thousand cells.
    """
    pre = level_preimages(spec, level)
    letters = sorted(pre)
    cells = v.elements
    index = {g: i for i, g in enumerate(cells)}
    # Each slot is read once its last cell in V's order is assigned.
    done_at: list = [[] for _ in cells]
    for slot in slot_cells:
        idxs = [index[c] for c in slot]
        done_at[max(idxs)].append(idxs)
    read_by = list(itertools.accumulate(map(len, done_at)))  # slots read by each cell
    # shown counts each window pattern among the slots read; added[i] holds
    # those read at cell i, taken back when that cell's letter changes
    shown = dict.fromkeys((p.values for p in pats), 0)
    missing = len(shown)
    vals: list = [None] * len(cells)
    added: list = [()] * len(cells)
    pending = [iter(letters)]
    while pending:
        pos = len(pending) - 1
        for t in added[pos]:
            shown[t] -= 1
            missing += not shown[t]
        added[pos] = ()
        a = next(pending[pos], None)
        if a is None:
            pending.pop()
            continue
        vals[pos] = a
        read = (tuple(vals[i] for i in idxs) for idxs in done_at[pos])
        new = [t for t in read if t in shown]
        for t in new:
            missing -= not shown[t]
            shown[t] += 1
        added[pos] = new
        if missing > len(slot_cells) - read_by[pos]:
            continue
        clamps = {cells[i]: pre[vals[i]] for i in range(pos + 1)}
        if not window_fill(ctx, spec, v, sem, clamps).feasible:
            continue
        if pos + 1 == len(cells):
            return Pattern.on(v, tuple(vals))
        pending.append(iter(letters))
    return None


class PhiSystem:
    """Marker-densification data: displaying ball, stamp, marker spacing.

    Holds the inputs of :func:`build_phi` and what its stamp search decided:
    the radius of the displaying ball V and the stamp ``u`` on V.  The
    marker spacing and syndetic bound follow from the radius on the rank-1
    lattice (0 elsewhere).  V^3, V^5 and the collar ring between them are
    built on first use, since only the rewrite reads them, and so are the
    level letters' preimages and the order :func:`_collar_fill` walks the
    ring in.  Systems compare by identity, and each keeps its own memo of
    collar fills.
    """

    def __init__(self, ctx: GroupContext, base: SftSpec, level: int,
                 window: FiniteSubset, sem: Semantics, build_scale: int,
                 max_v_radius: int, v_radius: int, u: Pattern):
        self.ctx = ctx
        self.base = base
        self.level = level
        self.window = window
        self.sem = sem
        self.build_scale = build_scale
        self.max_v_radius = max_v_radius
        self.v_radius = v_radius
        self.v = ctx.ball(v_radius)
        self.u = u  # displaying stamp on V
        if isinstance(ctx, LatticeContext) and ctx.rank == 1:
            # Maximal separation forbids all-zero stretches on ball(10r), so
            # markers are at most 20r+1 apart and every stretch of length
            # 22r+1 contains a whole stamp.
            self.marker_spacing = 10 * v_radius + 1  # canonical period
            self.syndetic_bound = 22 * v_radius + 1  # a stretch must hold a full stamp
        else:
            self.marker_spacing = self.syndetic_bound = 0
        self._conf_memo: dict = {}

    @functools.cached_property
    def preimages(self) -> dict:
        """Base letters grouped by their truncation to the system level."""
        return level_preimages(self.base, self.level)

    @functools.cached_property
    def v3(self) -> FiniteSubset:
        return self.ctx.ball(3 * self.v_radius)

    @functools.cached_property
    def v5(self) -> FiniteSubset:
        return self.ctx.ball(5 * self.v_radius)

    @functools.cached_property
    def ring(self) -> FiniteSubset:
        """V^5 minus V^3: the re-glued collar."""
        v3 = self.v3
        return FiniteSubset.of(self.ctx, [g for g in self.v5 if g not in v3])

    @functools.cached_property
    def ring_walks(self) -> tuple[list, list]:
        """Indices into ``ring`` of its cells left of V^3, leftmost first,
        and of those right of V^3, rightmost first (rank-1 lattice only)."""
        cells = self.ring.elements
        order = sorted(range(len(cells)), key=cells.__getitem__)
        left = [i for i in order if cells[i][0] < 0]
        right = [i for i in reversed(order) if cells[i][0] > 0]
        return left, right


def build_phi(
    ctx: GroupContext,
    spec: SftSpec,
    level: int,
    f: FiniteSubset,
    witness_scale: int = 6,
    sem: Semantics = EXACT,
    max_v_radius: int = 6,
) -> PhiSystem:
    """Search for the least displaying ball and package the marker system.

    The ball must contain the window, carry a stamp showing every
    admissible window pattern, and pass the gluing check, so that points
    rewritten near any V^5-separated marker set keep their window-pattern
    set while acquiring stamps at every marker.
    """
    if not isinstance(spec, SftSpec):
        raise SubshiftError("densification needs a finite-type presentation")
    if len(f) == 0:
        raise ValueError("the window must be non-empty")
    if witness_scale < 1:
        raise ValueError(f"witness scale must be >= 1, got {witness_scale}")
    if max_v_radius < 0:
        raise ValueError(f"max v radius must be >= 0, got {max_v_radius}")
    check_level(spec.stack, level)
    v_radius, u = _stamp_core(ctx, spec, level, f, witness_scale, sem, max_v_radius)
    return PhiSystem(ctx, spec, level, f, sem, witness_scale, max_v_radius, v_radius, u)


def _marker_hits(sys: PhiSystem, y: Configuration, cells: range) -> list:
    """The marker whose V^3-neighbourhood covers each cell of ``cells``.

    Each hit is ``(k, h)``, a marker at ``h`` with the cell at ``h k``,
    or None.  One walk over the markers of ``y`` within V^3 of the range
    places each marker's hits by integer offset on the rank-1 lattice.
    A cell two markers reach means the marker set was not V^5-separated,
    a hard fault raised at the first such cell.
    """
    reach, lo = 3 * sys.v_radius, cells.start
    hits: list = [None] * len(cells)
    twice = []  # cells a second marker reaches
    for h in range(lo - reach, cells.stop + reach):
        if y.value((h,)) == 1:
            for k in sys.v3:
                if 0 <= (i := h + k[0] - lo) < len(hits):
                    if hits[i] is not None:
                        twice.append(i)
                    hits[i] = (k, (h,))
    if twice:
        raise ConstructionError(
            f"markers collide near {lo + min(twice)}: "
            "the marker set is not V^5-separated"
        )
    return hits


def _collar_fill(sys: PhiSystem, zprime: Configuration, h, u: Pattern) -> Pattern:
    """The V^3 pattern around the marker at ``h``: stamp ``u`` glued to the collar.

    The collar is ``zprime`` read (truncated) on the ring V^5 minus V^3
    around ``h``, and :func:`conf` glues it to ``u`` on V^5.  Only the V^3
    part is kept, since no ring cell is read from it.  Fills are memoised
    on the system, so one memo serves every stamp a rewrite places.  Under
    ``local(m)`` the memo key is the collar and stamp values.  Under exact
    semantics the collar enters the fill only through the transfer-graph
    states its cells left of V^3 reach walking forward and those its cells
    right of V^3 reach walking backward: every mask the outward fill reads
    inside V^3, its feasibility and so its ``GluingError`` are functions of
    those two masks and the stamp.  So the key is the two masks and the
    stamp values, and ``conf`` runs once per boundary state pair rather
    than once per collar.
    """
    ctx = sys.ctx
    collar_vals = tuple(
        project_letter(zprime.value(ctx.mul(c, h)), sys.level, sys.base.stack)
        for c in sys.ring
    )
    key = (collar_vals, u.values)
    pre = sys.preimages
    # a collar letter outside the level alphabet is left for conf to name
    if sys.sem.mode == "exact" and all(v in pre for v in collar_vals):
        tg = transfer_graph(sys.base)
        left, right = sys.ring_walks
        fwd = back = tg.full
        for i in left:
            fwd = tg.step(fwd, pre[collar_vals[i]])
        for i in right:
            back = tg.step(back, pre[collar_vals[i]], back=True)
        key = (fwd, back, u.values)
    q = sys._conf_memo.get(key)
    if q is None:
        collar = Pattern.on(sys.ring, collar_vals)
        glued = conf(ctx, sys.base, sys.level, sys.v5, collar, u, sys.sem)
        q = Pattern.on(sys.v3, tuple(glued.value_at(g) for g in sys.v3))
        sys._conf_memo[key] = q
    return q


def _phi_letter(
    sys: PhiSystem, zprime: Configuration, hit, g, fills: dict, stamp_at=None
):
    """Resolve one cell of the rewritten point from its marker hit.

    No hit (see :func:`_marker_hits`) means the cell keeps the base point's
    (truncated) value, a marker within V means a stamp cell, and a marker
    within V^3 only means a collar cell looked up from the glued V^5 fill
    around that marker.  ``stamp_at`` maps a marker to the stamp it
    carries, ``sys.u`` when omitted.  ``fills`` keeps one fill per marker
    for a fixed ``zprime``, so the collar tuple is read and the ``conf``
    memo consulted once per marker rather than once per collar cell.
    """
    if hit is None:
        return project_letter(zprime.value(g), sys.level, sys.base.stack)
    k, h = hit
    u = sys.u if stamp_at is None else stamp_at(h)
    if k in sys.v:
        return u.value_at(k)
    q = fills.get(h)
    if q is None:
        q = fills[h] = _collar_fill(sys, zprime, h, u)
    return q.value_at(k)


def phi_point(
    sys: PhiSystem, zprime: Configuration, y: Configuration
) -> Configuration:
    """The rewritten configuration (letters truncated to the system level).

    Rank-1 lattice only, since each cell reads its marker hit by offset.
    """
    _require_exact_ctx(sys.ctx)
    fills: dict = {}
    return Configuration(
        sys.ctx,
        lambda g: _phi_letter(
            sys, zprime, _marker_hits(sys, y, range(g[0], g[0] + 1))[0], g, fills
        ),
        f"densified[{sys.base.name or 'base'}]",
    )


def _periodic_window_admissible(spec: SftSpec, word: tuple, period: int) -> bool:
    """Is the ``period``-periodic ``word`` an admissible window of ``spec``?

    Needs ``len(word) >= period + m`` (``m`` the forbidden diameter);
    then a scan of each distinct forbidden pattern over the word decides
    it, by the lemma in :func:`verify_phi`.  An occurrence at a start
    ``i >= period`` repeats at ``i - period``, so the starts in one period
    decide it.  They are indexed by letter, and each pattern is tried only
    at the starts holding its first letter.
    """
    norm = dict.fromkeys(_normalized_forbidden(spec))
    m = max((offs[-1] for offs, _ in norm), default=0)
    if period < 1 or len(word) < period + m:
        raise ValueError(
            f"a {period}-periodic word needs at least {period + m} letters"
        )
    if word[period:] != word[:-period]:
        raise ValueError(f"the word is not {period}-periodic")
    if not set(word) <= set(spec.letters()):
        return False
    starts: dict = {}
    for i in range(period):
        starts.setdefault(word[i], []).append(i)
    return not any(
        all(word[i + o] == v for o, v in zip(offs, vals))
        for offs, vals in norm
        for i in starts.get(vals[0], ())
    )


def canonical_marker_point(sys: PhiSystem) -> Configuration:
    """Marker indicator with ones on the canonical lattice (rank-1 only)."""
    _require_exact_ctx(sys.ctx)
    return periodic_configuration(sys.ctx, {(0,): 1}, (sys.marker_spacing,), 0)


def verify_phi(
    sys: PhiSystem, scale: int, samples: int = 12, seed: int = 0
) -> dict:
    """Re-check the densification claims on sampled base points.

    For the canonical marker point and each sampled admissible stretch of
    the base system, the image is evaluated exhaustively on
    ``[-scale, scale]`` and checked three ways: every window-pattern
    translate stays admissible, every stretch of the syndetic bound shows
    every admissible window pattern, and the scanned stretch as a whole
    shows exactly the expected pattern set.  The marker point is the same
    for every sample, so each cell's marker hit is found once, by one walk
    over the markers near the scan (:func:`_marker_hits`); each
    sample then reads one collar per marker, and :func:`_collar_fill` runs
    ``conf`` only for a pair of boundary states no earlier collar of the
    system reached (once in all on the full shift, whose transfer graph has
    one state).  The first sample is the least word of the window language,
    read off an iterative walk, so no scale reaches the recursion limit.
    Placements are read as value tuples, and a ``Pattern`` is built only
    for a violation report.  The stretches are one window slid across the
    scan, counting the expected tuples placed in it, so a stretch shows
    every pattern exactly when it holds as many distinct tuples as there
    are patterns.

    ``marker_window_ok``: the marker point's window on ``[-3s, 3s]`` is
    an admissible window of the marker system (the indicators of maximal
    ``V^5``-separated sets, built here).  Lemma: an ``s``-periodic word of
    at least ``s + m`` letters (``m`` the forbidden diameter) is one
    exactly when its letters lie in the alphabet and no forbidden pattern
    occurs inside it, since every ``(m + 1)``-window of its periodic
    extension already lies inside it.  Here ``s = 10r + 1`` and
    ``m = 20r``, so ``6s + 1 >= s + m`` and a direct scan decides it
    without the marker system's transfer graph.
    """
    ctx = sys.ctx
    _require_exact_ctx(ctx)
    if sys.sem.mode != "exact":
        raise SubshiftError("densification verification runs exact semantics")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    bound = sys.syndetic_bound
    if 2 * scale + 1 < bound:
        raise ValueError(
            f"scale too small: the scan must cover the syndetic bound {bound}"
        )
    f = sys.window
    flo, fhi = hull_interval(f)
    expected = {
        p.values for p in level_pattern_list(ctx, sys.base, f, sys.level, sys.sem)
    }
    tg = transfer_graph(sys.base)
    y = canonical_marker_point(sys)
    mspan = 3 * sys.marker_spacing
    marker_window_ok = _periodic_window_admissible(
        max_separated_spec(ctx, sys.v5),
        tuple(y.value((t,)) for t in range(-mspan, mspan + 1)),
        sys.marker_spacing,
    )
    margin = scale + max(abs(flo), abs(fhi)) + 8 * sys.v_radius + 1
    length = 2 * margin + 1
    rng = random.Random(seed)
    words = [next(iter(tg.language(length)))]
    words += [tg.sample(length, rng) for _ in range(samples)]
    cells = range(-scale + flo, scale + fhi + 1)
    hits = _marker_hits(sys, y, cells)
    placed = range(-scale, scale + 1)
    # placement t reads img[t - placed.start + o] for each o in reads
    reads = [x[0] - flo for x in f]
    violations: list = []
    placements = 0
    stretches = 0

    def to_json(vals: tuple) -> dict:
        return Pattern.on(f, vals).to_json(ctx)

    for idx, word in enumerate(words):
        data = {(-margin + i,): word[i] for i in range(length)}
        zp = Configuration(ctx, lambda g, d=data: d[g], f"sample:{idx}")
        fills: dict = {}
        img = [
            _phi_letter(sys, zp, hit, (t,), fills) for t, hit in zip(cells, hits)
        ]
        vals_at = dict(zip(placed, zip(*(img[o:o + len(placed)] for o in reads))))
        placements += len(placed)
        for t, vals in vals_at.items():
            if vals not in expected:
                violations.append(
                    {
                        "kind": "pattern-escape",
                        "sample": idx,
                        "at": t,
                        "pattern": to_json(vals),
                    }
                )
        # Stretch a reads the placements a - flo <= t < a + bound - fhi that
        # the scan has; seen counts the expected tuples placed there as it
        # slides, so it holds all of them exactly when it has as many keys.
        seen: Counter = Counter(
            v for t in range(-scale - flo, -scale + bound - fhi - 1)
            if (v := vals_at.get(t)) in expected
        )
        for a in range(-scale, scale - bound + 2):
            stretches += 1
            enter, leave = a + bound - fhi - 1, a - flo
            if enter >= leave and (v := vals_at.get(enter)) in expected:
                seen[v] += 1
            if len(seen) < len(expected):
                violations.append(
                    {
                        "kind": "stretch-missing",
                        "sample": idx,
                        "at": a,
                        "missing": to_json(min(expected - seen.keys())),
                    }
                )
            if enter >= leave and (v := vals_at.get(leave)) in seen:
                seen[v] -= 1
                if not seen[v]:
                    del seen[v]
        whole = set(vals_at.values())
        if whole != expected:
            violations.append(
                {
                    "kind": "scan-pattern-set",
                    "sample": idx,
                    "missing": [to_json(v) for v in sorted(expected - whole)],
                    "extra": [to_json(v) for v in sorted(whole - expected)],
                }
            )
    verdict = marker_window_ok and not violations
    evidence = {
        "v_radius": sys.v_radius,
        "stamp": sys.u.to_json(ctx),
        "marker_spacing": sys.marker_spacing,
        "syndetic_bound": bound,
        "pattern_count": len(expected),
        "marker_window_ok": marker_window_ok,
        "samples_checked": len(words),
        "placements_checked": placements,
        "stretches_checked": stretches,
        "violations": violations,
    }
    build = (ctx, sys.base, sys.level, f, sys.sem, sys.build_scale, sys.max_v_radius)
    return _PHI_CLAIM.envelope((*build, scale, samples, seed), scale, verdict, evidence)


_PHI_CLAIM = register_claim(
    "phi-densification", "constructions",
    (("group", "group"), ("spec", "sft"), ("level", "int"), ("window", "subset"),
     ("semantics", "semantics"), ("witness_scale", "int"), ("max_v_radius", "int"),
     ("scale", "int"), ("samples", "int"), ("seed", "int")),
    lambda ctx, spec, level, f, sem, witness_scale, max_v_radius, *scan: verify_phi(
        build_phi(ctx, spec, level, f, witness_scale, sem, max_v_radius), *scan
    ),
)


# ---------------------------------------------------------------------------
# small-set shattering
# ---------------------------------------------------------------------------

def squares_member(g) -> bool:
    """Perfect squares inside the non-negative integers."""
    n = g[0]
    return n >= 0 and isqrt(n) ** 2 == n


def evens_member(g) -> bool:
    """The even integers (syndetic, so never small)."""
    return g[0] % 2 == 0


MEMBER_PREDICATES: dict[str, Callable] = {
    "squares": squares_member,
    "evens": evens_member,
}


def _signed_offsets(cap: int):
    yield 0
    for k in range(1, cap + 1):
        yield -k
        yield k


def _block_clear_test(member_fn: Callable, lo: int, hi: int, radius: int):
    """Predicate: does the block ``[h - radius, h + radius]`` miss the set?

    Member flags are read once into running counts, which answer centres
    in ``[lo, hi]``; centres outside ask ``member_fn`` cell by cell.
    """
    base = lo - radius
    counts = [0]
    for n in range(base, hi + radius + 1):
        counts.append(counts[-1] + (1 if member_fn((n,)) else 0))

    def clear(h: int) -> bool:
        if lo <= h <= hi:
            return counts[h + radius + 1 - base] == counts[h - radius - base]
        return not any(member_fn((h + t,)) for t in range(-radius, radius + 1))

    return clear


class ShatterResult:
    """Outcome of shattering: the built point plus its certificate."""

    def __init__(self, sys: PhiSystem, point: Configuration, markers: Configuration,
                 d_radius: int, x_spacing: int, smallness: SmallnessReport,
                 certificate: dict):
        self.sys = sys
        self.point = point  # rewritten point matching the choice on B
        self.markers = markers  # displaced marker indicator
        self.d_radius = d_radius  # displacement ball radius
        self.x_spacing = x_spacing  # period of the underlying marker grid
        self.smallness = smallness
        self.certificate = certificate


def shatter_small(
    ctx: GroupContext,
    member: str,
    c_elems,
    region,
    spec: Optional[SftSpec] = None,
    witness_scale: int = 6,
    avoid_cap: int = 2000,
    smallness_cap: int = 60,
) -> ShatterResult:
    """Realize an arbitrary 0/1 choice on a small set by dodging markers.

    ``member`` names the small set B in :data:`MEMBER_PREDICATES` (the
    certificate records the name, so ``verify`` can rebuild it), and
    ``c_elems`` lists the members of B that must carry 1.  The smallness
    gate demands whole avoided blocks of the radius the stamps need; the
    marker grid is then displaced into avoided blocks so no stamp or collar
    ever touches B, leaving the raw choice values on B untouched while the
    rest of the point carries the usual stamps.
    """
    _require_exact_ctx(ctx)
    member_fn = MEMBER_PREDICATES.get(member)
    if member_fn is None:
        raise ConstructionError(f"unknown member predicate {member!r}")
    if spec is None:
        spec = SftSpec(ctx.describe(), (2,), (), "full_shift")
    if spec.forbidden or spec.stack != 1 or spec.alphabet_sizes != (2,):
        raise ConstructionError(
            "shattering rewrites an unconstrained binary base point"
        )
    region = FiniteSubset.of(ctx, region)
    if len(region) == 0:
        raise ValueError("the region must be non-empty")
    c_sub = FiniteSubset.of(ctx, c_elems)
    stray = [g for g in c_sub if not member_fn(g)]
    if stray:
        raise ValueError(
            f"choice elements outside the shattered set: {stray[:3]!r}"
        )
    b_region = [g for g in region if member_fn(g)]
    window = FiniteSubset.of(ctx, [ctx.identity])
    sys = build_phi(ctx, spec, 1, window, witness_scale=witness_scale)
    r5 = 5 * sys.v_radius
    smallness = is_small(ctx, member_fn, r5, region, smallness_cap)
    if smallness.overall != "small-up-to-scale":
        bad = next(
            (v for v in smallness.per_radius if v.verdict != "small"), None
        )
        raise SmallnessRejected(
            "the target set fails the smallness gate at block radius "
            f"{bad.radius if bad else '?'}: "
            f"{bad.verdict if bad else 'unknown'}",
            smallness,
        )
    ints = [g[0] for g in region]
    lo, hi = min(ints), max(ints)
    clear = _block_clear_test(member_fn, lo - avoid_cap, hi + avoid_cap, r5)
    avoided = [h for h in range(lo - avoid_cap, hi + avoid_cap + 1) if clear(h)]
    if not avoided:
        raise ConstructionError(
            f"no avoided block of radius {r5} within {avoid_cap} of the region"
        )
    worst = 0
    for n in ints:
        i = bisect.bisect_left(avoided, n)
        near = min(
            abs(avoided[j] - n) for j in (i - 1, i) if 0 <= j < len(avoided)
        )
        worst = max(worst, near)
    d_radius = r5 + worst
    spacing = 6 * d_radius + 1  # maximal ball(3*d_radius)-separated grid
    # Displacements beyond this cap would break V^5-separation of markers.
    sep_cap = (spacing - 10 * sys.v_radius - 1) // 2
    disp_memo: dict[int, int] = {}

    def displacement(gx: int) -> int:
        w = disp_memo.get(gx)
        if w is None:
            for cand in _signed_offsets(sep_cap):
                if clear(gx + cand):
                    w = cand
                    break
            else:
                raise ConstructionError(
                    f"no avoided block within {sep_cap} of grid point {gx}"
                )
            disp_memo[gx] = w
        return w

    def y_rule(g):
        n = g[0]
        gx = ((n + spacing // 2) // spacing) * spacing
        if abs(n - gx) > sep_cap:
            return 0
        return 1 if gx + displacement(gx) == n else 0

    markers = Configuration(ctx, y_rule, "displaced-markers")
    target = indicator_configuration(ctx, lambda g: g in c_sub, "choice")
    point = phi_point(sys, target, markers)

    mismatches = [
        g
        for g in b_region
        if point.value(g) != (1 if g in c_sub else 0)
    ]
    marker_cells = [
        n
        for n in range(lo - spacing, hi + spacing + 1)
        if markers.value((n,)) == 1
    ]
    sep_ok = all(
        b - a > 10 * sys.v_radius
        for a, b in zip(marker_cells, marker_cells[1:])
    )
    blocks_ok = all(
        not member_fn((n + t,))
        for n in marker_cells
        for t in range(-r5, r5 + 1)
    )
    clearance_ok = all(
        abs(g[0] - n) > 3 * sys.v_radius
        for g in b_region
        for n in marker_cells
    )
    stamp_by_pos = [
        sys.u.value_at((k,))
        for k in range(-sys.v_radius, sys.v_radius + 1)
    ]
    stamps_ok = all(
        [
            point.value((n + k,))
            for k in range(-sys.v_radius, sys.v_radius + 1)
        ]
        == stamp_by_pos
        for n in marker_cells
    )
    verdict = (
        not mismatches and sep_ok and blocks_ok and clearance_ok and stamps_ok
    )
    used = [abs(disp_memo[gx]) for gx in sorted(disp_memo)]
    evidence = {
        "smallness": smallness.to_json(ctx),
        "d_radius": d_radius,
        "x_spacing": spacing,
        "separation_cap": sep_cap,
        "avoided_blocks": len(avoided),
        "marker_count": len(marker_cells),
        "max_displacement": max(used) if used else 0,
        "restriction_mismatches": [ctx.element_to_json(g) for g in mismatches],
        "markers_separated": sep_ok,
        "marker_blocks_avoid_set": blocks_ok,
        "set_clear_of_collars": clearance_ok,
        "stamps_in_place": stamps_ok,
    }
    certificate = _SHATTER_CLAIM.envelope(
        (ctx, spec, member, c_sub, region, witness_scale, avoid_cap,
         smallness_cap),
        max(abs(lo), abs(hi)),
        verdict,
        evidence,
    )
    return ShatterResult(sys, point, markers, d_radius, spacing, smallness, certificate)


_SHATTER_CLAIM = register_claim(
    "small-set-shattering", "constructions",
    (("group", "group"), ("spec", "sft"), ("member", "str"), ("choice", "subset"),
     ("region", "subset"), ("witness_scale", "int"), ("avoid_cap", "int"),
     ("smallness_cap", "int")),
    lambda ctx, spec, member, choice, region, *caps: shatter_small(
        ctx, member, choice, region, spec, *caps
    ).certificate,
)


# ---------------------------------------------------------------------------
# equivariant densification over a finite acting group
# ---------------------------------------------------------------------------

class GammaSystem:
    """Equivariant densification data over a finite acting group.

    The rewrite is ``phi``'s (:func:`build_phi` on the base at level 1):
    markers sit on its canonical grid, and the stamp at the ``j``-th grid
    point is the base stamp with every letter multiplied by the ``j``-th
    group element, cycling through the whole group.  Collars are re-glued
    against a least periodic background point through ``phi``'s memo.
    The syndetic bound and the cycle of stamps are derived from ``phi`` and
    the group; the density level is not kept, since the certificate reads
    it from its inputs.
    """

    def __init__(self, phi: PhiSystem, gamma: FiniteGroupContext,
                 base_point: Configuration, base_period: int):
        self.phi = phi
        self.gamma = gamma
        self.base_point = base_point
        self.base_period = base_period
        # a stretch this long holds a whole cycle of stamps
        self.syndetic_bound = gamma.order * phi.marker_spacing + 2 * phi.v_radius
        u = phi.u
        self.stamps = tuple(  # stamps[j]: the base stamp times group element j
            Pattern.on(u.domain, tuple(gamma.mul(j, a) for a in u.values))
            for j in range(gamma.order)
        )

    def stamp_at(self, h) -> Pattern:
        """The stamp carried by the marker at ``h``."""
        return self.stamps[(h[0] // self.phi.marker_spacing) % self.gamma.order]


def gamma_point(gsys: GammaSystem, gelt: int = 0) -> Configuration:
    """The built point, letterwise multiplied by a group element."""
    if not 0 <= gelt < gsys.gamma.order:
        raise ValueError("unknown group element")
    phi = gsys.phi
    markers = canonical_marker_point(phi)
    fills: dict = {}

    def letter(g):
        hit = _marker_hits(phi, markers, range(g[0], g[0] + 1))[0]
        star = _phi_letter(phi, gsys.base_point, hit, g, fills, gsys.stamp_at)
        return gsys.gamma.mul(gelt, star)

    return Configuration(
        phi.ctx, letter, "gamma-star" if gelt == 0 else f"gamma-star*{gelt}"
    )


def least_periodic_point(ctx: GroupContext, spec: SftSpec) -> tuple[Configuration, int]:
    """Canonically least periodic admissible point (period up to 8)."""
    tg = transfer_graph(spec)
    for p in range(1, 9):
        reps = tg.m // p + 2
        for w in tg.language(p):
            if tg.contains(w * reps):
                table = {(i,): w[i] for i in range(p)}
                return periodic_configuration(ctx, table, (p,)), p
    raise ConstructionError("no admissible periodic point with period <= 8")


def gamma_densify(
    ctx: GroupContext,
    gamma: FiniteGroupContext,
    spec_y: SftSpec,
    f: FiniteSubset,
    eps: float,
    scale: int = 40,
    witness_scale: int = 6,
    max_v_radius: int = 6,
    closure_len: int = 6,
) -> tuple[GammaSystem, dict]:
    """Densify against cycling group-translated stamps; certify equivariance.

    The base alphabet must be the acting group's element set and its
    language closed under letterwise multiplication.  The certificate
    collects every window of the built point's letterwise translates and
    checks, window by window: stamps are group translates of the base
    stamp, off-stamp cells extend to admissible base points, every
    collar-length stretch is admissible, the realized window corpus is
    orbit-closed, and every stretch of the syndetic bound shows exactly
    the full admissible window-pattern set (any density level in (0, 1]
    forces that equality on a finite pattern set).
    """
    _require_exact_ctx(ctx)
    if not isinstance(gamma, FiniteGroupContext):
        raise TypeError("the acting group must be finite")
    if not isinstance(spec_y, SftSpec):
        raise SubshiftError("equivariant densification needs a finite-type base")
    if spec_y.group != ctx.describe():
        raise SubshiftError("the base system lives on a different group")
    if spec_y.stack != 1 or spec_y.alphabet_sizes != (gamma.order,):
        raise ConstructionError(
            "the base alphabet must be the acting group's element set"
        )
    if not 0 < eps <= 1:
        raise ValueError("the density level must lie in (0, 1]")
    tg = transfer_graph(spec_y)
    # The (m + 1)-words are the graph's edges, so invariance there gives
    # invariance at every length; shorter lengths come first, so the least
    # offending word is reported.
    for length in range(1, max(closure_len, tg.m + 1) + 1):
        for w in tg.language(length):
            for gelt in range(1, gamma.order):
                mapped = tuple(gamma.mul(gelt, a) for a in w)
                if not tg.contains(mapped):
                    raise ConstructionError(
                        f"base language is not invariant: {w!r} maps to "
                        f"inadmissible {mapped!r}"
                    )
    phi = build_phi(ctx, spec_y, 1, f, witness_scale, EXACT, max_v_radius)
    gsys = GammaSystem(phi, gamma, *least_periodic_point(ctx, spec_y))
    inputs = (ctx, gamma, spec_y, f, eps, scale, witness_scale, max_v_radius,
              closure_len)
    return gsys, _gamma_certificate(gsys, scale, inputs)


def _gamma_certificate(gsys: GammaSystem, scale: int, inputs: tuple) -> dict:
    phi = gsys.phi
    ctx = phi.ctx
    gamma = gsys.gamma
    bound = gsys.syndetic_bound
    if 2 * scale + 1 < bound:
        raise ValueError(
            f"scale too small: the scan must cover the syndetic bound {bound}"
        )
    wlen = bound
    spacing = phi.marker_spacing
    r = phi.v_radius
    tg = transfer_graph(phi.base)
    point = gamma_point(gsys)
    star = {t: point.value((t,)) for t in range(-scale, scale + 1)}
    corpus: dict[tuple, tuple] = {}
    for gelt in range(gamma.order):
        row = [gamma.mul(gelt, star[t]) for t in range(-scale, scale + 1)]
        for i in range(len(row) - wlen + 1):
            corpus.setdefault(tuple(row[i : i + wlen]), (gelt, i - scale))
    violations: list = []
    for w in sorted(corpus):
        for gelt in range(1, gamma.order):
            moved = tuple(gamma.mul(gelt, x) for x in w)
            if moved not in corpus:
                violations.append(
                    {"kind": "orbit-escape", "window": list(w), "by": gelt}
                )
    pats = level_pattern_list(ctx, phi.base, phi.window, 1, EXACT)
    expected = {p.values for p in pats}
    flo, fhi = hull_interval(phi.window)
    reads = [x[0] for x in phi.window]  # placement t reads w[t + o] for each o
    stamp_by_pos = [phi.u.value_at((k,)) for k in range(-r, r + 1)]
    stamp_orbit = [
        [gamma.mul(gelt, x) for x in stamp_by_pos]
        for gelt in range(gamma.order)
    ]
    span = 10 * r + 1
    for w, (gelt, a) in sorted(corpus.items()):
        h = -(-(a + r) // spacing) * spacing
        while h + r <= a + wlen - 1:
            vals = [w[t - a] for t in range(h - r, h + r + 1)]
            if vals not in stamp_orbit:
                violations.append(
                    {"kind": "stamp-mismatch", "window": list(w), "at": h}
                )
            h += spacing
        off = {}
        for t in range(a, a + wlen):
            hnear = ((t + spacing // 2) // spacing) * spacing
            if abs(t - hnear) > 3 * r:
                off[(t,)] = w[t - a]
        if off and not is_admissible(ctx, phi.base, Pattern.of(ctx, off), EXACT):
            violations.append({"kind": "off-stamp-escape", "window": list(w)})
        # the window language is factor-closed: only a window outside it
        # can hold a collar-length stretch outside it, so only it is scanned
        if not tg.contains(w):
            for b in range(wlen - span + 1):
                if not tg.contains(w[b : b + span]):
                    violations.append(
                        {"kind": "collar-escape", "window": list(w), "at": a + b}
                    )
                    break
        seen = {
            tuple(w[t + o] for o in reads) for t in range(-flo, wlen - fhi)
        }
        if seen != expected:
            violations.append(
                {"kind": "window-pattern-set", "window": list(w)}
            )
    verdict = not violations
    evidence = {
        "v_radius": r,
        "stamp": phi.u.to_json(ctx),
        "marker_spacing": spacing,
        "syndetic_bound": bound,
        "base_period": gsys.base_period,
        "corpus_size": len(corpus),
        "pattern_count": len(expected),
        "eps_note": "any density level in (0, 1] forces exact equality "
        "of finite window-pattern sets",
        "violations": violations,
    }
    return _GAMMA_CLAIM.envelope(inputs, scale, verdict, evidence)


_GAMMA_CLAIM = register_claim(
    "gamma-densification", "constructions",
    (("group", "group"), ("gamma", "group"), ("spec", "sft"), ("window", "subset"),
     ("eps", "float"), ("scale", "int"), ("witness_scale", "int"),
     ("max_v_radius", "int"), ("closure_len", "int")),
    lambda *inputs: gamma_densify(*inputs)[1],
)
