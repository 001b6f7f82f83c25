"""The stamp constructions' fast paths against the slow paths they replaced.

The oracles below are the original routines, kept here and nowhere else:
``oracle_elements_in_order`` chains the spheres of
``test_groups.oracle_spheres``, each ``test_groups.oracle_ball`` minus the
one before, ``oracle_free_dense_point`` restarts its site
search from the identity on every placement and
``oracle_free_dense_point_by_stage`` on every stage, building each
candidate's cells before testing any, ``oracle_is_small``
recomputes ``oracle_interior(region, ball(rho))`` and the cover
``ball(rho)*avoid`` for every pair (r, rho),
``oracle_syndeticity_witness`` adds the translate of one word-length ring
at a time, and ``oracle_tail_ok`` loops over the forbidden patterns at
every transfer-graph extension, where the library reads the edges off
one ``_LocalRegion`` search of ``m + 1`` cells.  ``oracle_interior`` and
``oracle_are_apart`` are the group geometry routines the library replaced
by breadth-first walks and by membership tests; ``test_local_engine``
asks ``oracle_are_apart`` too.  The library must
agree with them exactly.  ``oracle_mixing_gap`` is the transfer graph's old
path-length scan, which the exact gluing check now reads off the graph's
bit-matrix powers.  The transfer graph's bit rows replaced three walks kept
here: ``oracle_feasible`` steps sets of state words, ``oracle_contains``
follows the edge dicts, and ``oracle_gluer_rows`` is the interval gluer's
old state index, adjacency and merged level rows, which
``TransferGraph.step`` over a level letter's preimages must match forward
and back; ``oracle_reach`` gives the
states reachable in exactly ``n`` steps as sets, and ``oracle_language``
lists windows recursing once per letter, where ``TransferGraph.language``
keeps a stack of edge iterators.  The exact gluing scan
reads interval apartness off ``D - D`` and decides each gap's co-occurring
pairs of behavior sets once, reading lengths only up to the first repeated
family of behavior sets and deciding no gap from the mixing gap on;
``oracle_first_lengths`` reads every length up to a limit instead;
``oracle_check_irreducible_exact`` is the per-class scan, which builds
both intervals and asks ``oracle_are_apart`` for every class and scans the words
of every apart class, and ``oracle_min_apart_gap`` is the old
singleton-apartness loop.  The densification re-check finds each
cell's marker once, by one walk over the markers near the scan, reads one
collar per marker, and decides the marker window by a periodic scan of
the starts holding each pattern's first letter (the lazy rewritten points
read a one-cell range of the same walk); ``oracle_marker_hit`` is
the per-cell V^3 scan, ``oracle_phi_letter`` scans V^3 and rebuilds
the collar for every cell, ``oracle_collar_fill`` runs ``conf`` on every
collar it reads, where the library keys its fills by the transfer-graph
states at the collar's two inner ends, ``oracle_marker_window_ok`` asks the marker
system's transfer graph, ``oracle_sample`` rebuilds the sampler's count
table on every call, and ``oracle_verify_phi`` is the re-check built on
them, comparing ``Pattern`` objects and testing every stretch for a subset.
``oracle_stamp_core`` is the stamp search that scans the sorted list of
every admissible V-pattern with the nested all/any/all test, on every
radius that holds the window, and ``oracle_avoided`` finds shattering's avoided
blocks by asking the member predicate for every cell of every block.
``oracle_conf_exact`` is the exact gluing loop ``conf`` ran before its
outward walk: positions counted on the hull of the domain and one
transfer-graph walk of the whole hull per probed letter.  Equivariant
densification now runs on the densification rewrite;
``oracle_gamma_letter`` is its own nearest-grid rewrite, which finds the
marker by arithmetic and glues a group-translated stamp for every cell.
Its certificate scans a window's collar-length stretches only when the
whole window leaves the language; ``oracle_collar_escapes`` scans them in
every window.  The free dense point's probe search, which the oracles run
from the identity building each candidate's product, now skips used
elements before any product.
"""

import copy
import functools
import gc
import itertools
import operator
import random
import re
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn import subshifts
from symdyn.certificates import canonical_json
from symdyn.configurations import (
    Configuration,
    FreeDensePoint,
    Stage,
    elements_in_order,
    free_dense_point,
    mapping_configuration,
)
from symdyn.constructions import (
    _PHI_CLAIM,
    ConstructionError,
    PhiSystem,
    _block_clear_test,
    _periodic_window_admissible,
    _stamp_core,
    build_phi,
    canonical_marker_point,
    evens_member,
    gamma_densify,
    gamma_point,
    phi_point,
    squares_member,
    verify_phi,
)
from symdyn.corpus import builtin_spec
from symdyn.groups import (
    FINITE_TABLES,
    BallCapExceeded,
    FiniteSubset,
    GroupContext,
    RadiusVerdict,
    SmallnessReport,
    SyndeticityResult,
    ball_cap,
    is_small,
    parse_group,
    set_mul,
    set_pow,
    syndeticity_witness,
)
from symdyn import constructions, irreducibility
from symdyn.irreducibility import (
    GluingCounterexample,
    IrreducibilityReport,
    _apart_span,
    _IntervalGluer,
    _min_apart_gap,
    _NewLengths,
    _positive_differences,
    check_irreducible,
    conf,
    is_admissible,
    level_pattern_list,
    level_preimages,
    max_separated_subshift,
)
from symdyn.subshifts import (
    EXACT,
    GluingError,
    Pattern,
    SftSpec,
    SubshiftError,
    TransferGraph,
    _bitrow_mul,
    _normalized_forbidden,
    hull_interval,
    local,
    pattern_set,
    project_letter,
    sorted_patterns,
    transfer_graph,
)
from test_groups import oracle_spheres

Z = parse_group("Z")
Z2 = parse_group("Z^2")
F2 = parse_group("F2")


# --- oracles ---------------------------------------------------------------------


def oracle_elements_in_order(ctx):
    """Every oracle ball minus the one before, that is the oracle spheres
    in turn, raising where ``ctx.ball`` would pass the cap."""
    cap = ball_cap()
    size = 0
    for r, sphere in enumerate(oracle_spheres(ctx)):
        size += len(sphere)
        if size > cap:
            raise BallCapExceeded(
                f"|ball({r})| exceeds SYMDYN_MAX_BALL={cap} on {ctx.describe()}"
            )
        yield from sphere


def oracle_free_dense_point(ctx, depth):
    assigned = {}
    used = set()
    targets = []
    for g in oracle_elements_in_order(ctx):
        if g != ctx.identity:
            targets.append(g)
        if len(targets) == depth:
            break

    def fresh_site(cells_of):
        for g in oracle_elements_in_order(ctx):
            if all(c not in used for c in cells_of(g)):
                return g
        raise RuntimeError("group exhausted")

    stages = []
    for i in range(1, depth + 1):
        window = ctx.ball(i - 1)
        placements = []
        for values in itertools.product((0, 1), repeat=len(window)):
            site = fresh_site(lambda g: [ctx.mul(x, g) for x in window])
            for x, v in zip(window.elements, values):
                cell = ctx.mul(x, site)
                assigned[cell] = v
                used.add(cell)
            placements.append((values, site))
        gi = targets[i - 1]
        probe = fresh_site(lambda h: [h, ctx.mul(h, gi)])
        assigned[probe] = 0
        assigned[ctx.mul(probe, gi)] = 1
        used.add(probe)
        used.add(ctx.mul(probe, gi))
        stages.append(Stage(window, tuple(placements), probe, gi))
    radius = max((ctx.word_length(c) for c in used), default=0)
    return FreeDensePoint(mapping_configuration(ctx, assigned, 0), tuple(stages), radius), assigned


def oracle_free_dense_point_by_stage(ctx, depth):
    """The block search restarting at the identity on every stage, with every
    candidate's cells built before any is tested; raises ``free_dense_point``'s
    error when the group runs out of sites."""
    assigned = {}
    used = set()
    targets = list(itertools.islice(oracle_elements_in_order(ctx), 1, depth + 1))
    order = oracle_elements_in_order(ctx)
    elems = []

    def fresh_site(cells_of, k):
        while True:
            if k == len(elems):
                g = next(order, None)
                if g is None:
                    raise ValueError(
                        f"group {ctx.describe()} has no free site left for a "
                        f"free dense point of depth {depth}"
                    )
                elems.append(g)
            if all(c not in used for c in cells_of(elems[k])):
                return k
            k += 1

    stages = []
    for i in range(1, depth + 1):
        window = ctx.ball(i - 1)
        placements = []
        cursor = 0
        for values in itertools.product((0, 1), repeat=len(window)):
            cursor = fresh_site(lambda g: [ctx.mul(x, g) for x in window], cursor)
            site = elems[cursor]
            for x, v in zip(window.elements, values):
                cell = ctx.mul(x, site)
                assigned[cell] = v
                used.add(cell)
            placements.append((values, site))
        gi = targets[i - 1]
        probe = elems[fresh_site(lambda h: [h, ctx.mul(h, gi)], 0)]
        assigned[probe] = 0
        assigned[ctx.mul(probe, gi)] = 1
        used.update((probe, ctx.mul(probe, gi)))
        stages.append(Stage(window, tuple(placements), probe, gi))
    radius = max((ctx.word_length(c) for c in used), default=0)
    return FreeDensePoint(mapping_configuration(ctx, assigned, 0), tuple(stages), radius), assigned


def oracle_interior(ctx, region, d):
    """Elements of ``region`` whose whole ``d``-translate stays inside it."""
    rset = region.as_set()
    return FiniteSubset.of(ctx, (g for g in region if all(ctx.mul(x, g) in rset for x in d)))


def oracle_are_apart(ctx, d, e1, e2):
    """True iff the ``d``-translates of ``e1`` and ``e2`` do not meet."""
    d1 = {ctx.mul(x, g) for x in d for g in e1}
    return all(ctx.mul(x, g) not in d1 for x in d for g in e2)


def oracle_syndeticity_witness(ctx, s, region, max_radius):
    """``syndeticity_witness`` adding each word-length ring's translate of ``s``."""
    covered = set(s.as_set())
    uncovered = [g for g in region if g not in covered]
    if not uncovered:
        return SyndeticityResult(True, 0, None, 0)
    for r in range(1, max_radius + 1):
        ring = [g for g in ctx.ball(r) if ctx.word_length(g) == r] or list(ctx.ball(r))
        for x in ring:
            covered.update(ctx.mul(x, g) for g in s)
        uncovered = [g for g in uncovered if g not in covered]
        if not uncovered:
            return SyndeticityResult(True, r, None, r)
    return SyndeticityResult(False, None, uncovered[0], max_radius)


def oracle_is_small(ctx, member, max_f_radius, region, syndetic_cap):
    verdicts = []
    for r in range(max_f_radius + 1):
        f = ctx.ball(r)
        avoid = [g for g in region if not any(member(ctx.mul(x, g)) for x in f)]
        verdict = None
        covered = set(avoid)
        for rho in range(syndetic_cap + 1):
            if rho > 0:
                for x in ctx.ball(rho):
                    covered.update(ctx.mul(x, g) for g in avoid)
            target = oracle_interior(ctx, region, ctx.ball(rho))
            if len(target) == 0:
                verdict = RadiusVerdict(r, "inconclusive", None, None, len(avoid))
                break
            missing = [g for g in target if g not in covered]
            if not missing:
                verdict = RadiusVerdict(r, "small", rho, None, len(avoid))
                break
        if verdict is None:
            target = oracle_interior(ctx, region, ctx.ball(syndetic_cap))
            missing = [g for g in target if g not in covered]
            verdict = RadiusVerdict(r, "not-small", None, missing[0] if missing else None,
                                    len(avoid))
        verdicts.append(verdict)
    if any(v.verdict == "not-small" for v in verdicts):
        overall = "not-small"
    elif any(v.verdict == "inconclusive" for v in verdicts):
        overall = "inconclusive"
    else:
        overall = "small-up-to-scale"
    return SmallnessReport(tuple(verdicts), overall)


def oracle_tail_ok(norm, word):
    last = len(word) - 1
    for offs, vals in norm:
        start = last - offs[-1]
        if start < 0:
            continue
        if all(word[start + o] == v for o, v in zip(offs, vals)):
            return False
    return True


def oracle_untrimmed_states(spec):
    """Every length-m word with no forbidden occurrence, sorted."""
    letters = tuple(sorted(spec.letters()))
    norm = _normalized_forbidden(spec)
    m = max((offs[-1] for offs, _ in norm), default=0)
    words = [()]
    for _ in range(m):
        words = [w + (a,) for w in words for a in letters if oracle_tail_ok(norm, w + (a,))]
    return sorted(words)


def oracle_transfer_graph(spec):
    """States and trimmed edges built with the per-pattern tail check."""
    letters = tuple(sorted(spec.letters()))
    norm = _normalized_forbidden(spec)
    m = max((offs[-1] for offs, _ in norm), default=0)
    states = oracle_untrimmed_states(spec)
    edges = {
        s: tuple((a, (s + (a,))[1:] if m else s) for a in letters
                 if oracle_tail_ok(norm, s + (a,)))
        for s in states
    }
    return TransferGraph._essentialize(states, edges)


def oracle_mixing_gap(graph, max_gap):
    """Least n <= max_gap with every state reaching every state in exactly
    n steps; None on an empty graph."""
    if not graph.states:
        return None
    everything = set(graph.states)
    reach = {s: {t for _, t in graph.edges[s]} for s in graph.states}
    for n in range(1, max_gap + 1):
        if all(r == everything for r in reach.values()):
            return n
        reach = {s: {u for t in r for _, u in graph.edges[t]} for s, r in reach.items()}
    return None


def _assert_mixing_gap_matches(spec, radius, scale):
    report = check_irreducible(Z, spec, 1, Z.ball(radius), scale)
    max_gap = max(2 * scale + 1, report.min_gap + 1)
    assert report.mixing_gap == oracle_mixing_gap(TransferGraph(spec), max_gap)


def oracle_language(states, edges, length):
    """Every word read along a path through the trimmed graph, sorted: the
    recursion, one call per letter, that ``TransferGraph.language`` unrolled."""
    m = len(states[0]) if states else 0
    if length <= m:
        return sorted({s[:length] for s in states})
    out = []

    def rec(state, word, todo):
        if todo == 0:
            out.append(word)
            return
        for a, t in edges[state]:
            rec(t, word + (a,), todo - 1)

    for s in states:
        rec(s, s, length - m)
    return out


def oracle_feasible(graph, length, allowed):
    """Window feasibility by stepping the set of live state words."""
    if not graph.states:
        return False

    def ok(pos, a):
        lset = allowed.get(pos)
        return lset is None or a in lset

    if length <= graph.m:
        return any(
            all(ok(i, w[i]) for i in range(length))
            for w in sorted({s[:length] for s in graph.states})
        )
    alive = {s for s in graph.states if all(ok(i, s[i]) for i in range(graph.m))}
    for pos in range(graph.m, length):
        alive = {t for s in alive for a, t in graph.edges[s] if ok(pos, a)}
        if not alive:
            return False
    return bool(alive)


def oracle_contains(graph, word):
    """Window membership by following the edge dicts from the first state."""
    if not graph.states:
        return False
    if len(word) <= graph.m:
        return word in {s[: len(word)] for s in graph.states}
    cur = word[: graph.m]
    if cur not in set(graph.states):
        return False
    for a in word[graph.m :]:
        nxt = dict(graph.edges[cur]).get(a)
        if nxt is None:
            return False
        cur = nxt
    return True


def oracle_gluer_rows(graph, spec, level):
    """The interval gluer's own build: its state index, its adjacency rows
    with their powers up to 3, and one row list per level letter."""
    index = {s: i for i, s in enumerate(graph.states)}
    k = len(index)
    adj = [0] * k
    fwd = {project_letter(a, level, spec.stack): [0] * k for a in spec.letters()}
    for s in graph.states:
        for b, t in graph.edges[s]:
            bit = 1 << index[t]
            adj[index[s]] |= bit
            fwd[project_letter(b, level, spec.stack)][index[s]] |= bit
    powers = [[1 << i for i in range(k)]]
    for _ in range(3):
        powers.append([
            functools.reduce(operator.or_, (adj[j] for j in range(k) if row >> j & 1), 0)
            for row in powers[-1]
        ])
    return powers, fwd


def oracle_reach(graph, n):
    """For each state, the set of states reachable in exactly ``n`` steps."""
    reach = {s: {s} for s in graph.states}
    for _ in range(n):
        reach = {s: {u for t in r for _, u in graph.edges[t]} for s, r in reach.items()}
    return reach


def oracle_min_apart_gap(ctx, d):
    lo = min(g[0] for g in d)
    hi = max(g[0] for g in d)
    for gap in range(hi - lo + 2):
        e2 = FiniteSubset.of(ctx, [(gap + 1,)])
        if oracle_are_apart(ctx, d, FiniteSubset.of(ctx, [(0,)]), e2):
            return gap
    raise RuntimeError("translates of distant singletons must separate")


def oracle_check_irreducible_exact(ctx, spec, level, d, scale):
    """The exact interval scan with ``oracle_are_apart`` per class and no verdict memo."""
    engine = _IntervalGluer(spec, level)
    tg = engine.tg

    def class_counterexample(l1, gap, l2):
        for er_bits, rep1 in engine.er_groups(l1):
            row = _bitrow_mul(er_bits, tg.power(gap))
            for en_bits, rep2 in engine.en_groups(l2):
                if row & en_bits == 0:
                    return rep1, rep2
        return None

    width = 2 * scale + 1
    min_gap = oracle_min_apart_gap(ctx, d)
    pairs = 0
    found = None
    classes = (
        (l1, gap, l2)
        for gap in range(width - 1)
        for l1 in range(1, width - gap)
        for l2 in range(1, width - gap - l1 + 1)
    )
    for l1, gap, l2 in classes:
        e1 = FiniteSubset.of(ctx, [(i,) for i in range(l1)])
        e2 = FiniteSubset.of(ctx, [(l1 + gap + i,) for i in range(l2)])
        if not oracle_are_apart(ctx, d, e1, e2):
            continue
        pairs += 1
        bad = class_counterexample(l1, gap, l2)
        if bad is not None:
            found = (l1, gap, l2, bad)
            break

    counterexample = None
    if found:
        l1, gap, l2, (w1, w2) = found
        a1 = -scale
        a2 = a1 + l1 + gap
        counterexample = GluingCounterexample(
            first=Pattern.of(ctx, {(a1 + i,): v for i, v in enumerate(w1)}),
            second=Pattern.of(ctx, {(a2 + i,): v for i, v in enumerate(w2)}),
            gap=gap,
        )
    holds = found is None
    mixing = None
    if tg.states:
        for n in range(1, max(2 * scale + 1, min_gap + 1) + 1):
            if all(r == tg.full for r in tg.power(n)):
                mixing = n
                break
    return IrreducibilityReport(
        holds=holds,
        level=level,
        scale=scale,
        semantics="exact",
        method="interval-transfer",
        pairs_checked=pairs,
        min_gap=min_gap,
        mixing_gap=mixing,
        unconditional=holds and all(r == tg.full for r in tg.power(min_gap)),
        counterexample=counterexample,
    )


def oracle_stamp_core(ctx, spec, level, f, witness_scale, sem, max_v_radius):
    """The displaying-ball search with the nested all/any/all stamp test."""
    pats = level_pattern_list(ctx, spec, f, level, sem)
    if len(pats) < 2:
        raise ConstructionError("densification needs at least two window patterns to show")
    for r in range(max_v_radius + 1):
        v = ctx.ball(r)
        if not all(g in v for g in f):
            continue
        slots = [k for k in v if all(ctx.mul(x, k) in v for x in f)]
        stamp = None
        for cand in level_pattern_list(ctx, spec, v, level, sem):
            if all(
                any(all(cand.value_at(ctx.mul(x, k)) == p.value_at(x) for x in f) for k in slots)
                for p in pats
            ):
                stamp = cand
                break
        if stamp is None:
            continue
        scale = max(witness_scale, 5 * r) if sem.mode == "exact" else witness_scale
        report = check_irreducible(ctx, spec, level, v, scale, sem)
        if report.holds:
            return r, stamp, report
    raise ConstructionError(
        f"no displaying ball up to radius {max_v_radius} shows all "
        f"{len(pats)} window patterns and verifies gluing"
    )


def oracle_conf_exact(ctx, spec, level, f, alpha1, alpha2):
    """Least joint extension by hull positions and graph walks; None if none."""
    pre = level_preimages(spec, level)
    merged = {**alpha1.mapping(), **alpha2.mapping()}
    tg = transfer_graph(spec)
    lo, hi = hull_interval(f)
    length = hi - lo + 1
    allowed = {g[0] - lo: pre[v] for g, v in merged.items()}
    if not tg.feasible(length, allowed):
        return None
    values = dict(merged)
    for cell in f:
        if cell in merged:
            continue
        pos = cell[0] - lo
        for v in sorted(pre):
            allowed[pos] = pre[v]
            if tg.feasible(length, allowed):
                values[cell] = v
                break
        else:
            raise RuntimeError("feasible window lost during gluing")
    return Pattern.of(ctx, values)


def oracle_gamma_letter(gsys, g):
    """One cell of the equivariant point from the nearest grid marker."""
    phi, gamma = gsys.phi, gsys.gamma
    n = g[0]
    spacing = phi.marker_spacing
    h = ((n + spacing // 2) // spacing) * spacing
    k = n - h
    r = phi.v_radius
    if abs(k) > 3 * r:
        return gsys.base_point.value(g)
    j = (h // spacing) % gamma.order
    if abs(k) <= r:
        return gamma.mul(j, phi.u.value_at((k,)))
    collar = Pattern.of(Z, {c: gsys.base_point.value((c[0] + h,)) for c in phi.ring})
    stamped = Pattern.of(Z, {c: gamma.mul(j, v) for c, v in phi.u.items()})
    return conf(Z, phi.base, 1, phi.v5, collar, stamped, EXACT).value_at((k,))


def oracle_marker_hit(sys, y, g):
    """The marker within V^3 of ``g``, ``(k, h)`` with ``g = k h``, by a scan
    of V^3 for this one cell; two markers that close raise."""
    ctx = sys.ctx
    hits = []
    for k in sys.v3:
        h = ctx.mul(ctx.inv(k), g)
        if y.value(h) == 1:
            hits.append((k, h))
    if len(hits) > 1:
        raise ConstructionError(
            f"markers collide near {ctx.element_to_text(g)}: "
            "the marker set is not V^5-separated"
        )
    return hits[0] if hits else None


def oracle_phi_letter(sys, zprime, y, g):
    """One cell of the rewritten point: a V^3 scan and a collar rebuilt per cell."""
    ctx = sys.ctx
    hit = oracle_marker_hit(sys, y, g)
    if hit is None:
        return project_letter(zprime.value(g), sys.level, sys.base.stack)
    k, h = hit
    if k in sys.v:
        return sys.u.value_at(k)
    collar_vals = tuple(
        project_letter(zprime.value(ctx.mul(c, h)), sys.level, sys.base.stack)
        for c in sys.ring
    )
    collar = Pattern.of(ctx, dict(zip(sys.ring.elements, collar_vals)))
    return conf(ctx, sys.base, sys.level, sys.v5, collar, sys.u, sys.sem).value_at(k)


def oracle_collar_escapes(gsys, scale, point):
    """The collar-escape violations of the equivariant certificate built on
    ``point``: every collar-length stretch of every corpus window asked of
    the transfer graph until the first that fails."""
    phi, gamma = gsys.phi, gsys.gamma
    wlen, span = gsys.syndetic_bound, 10 * phi.v_radius + 1
    tg = transfer_graph(phi.base)
    corpus = {}
    for gelt in range(gamma.order):
        row = [gamma.mul(gelt, point.value((t,))) for t in range(-scale, scale + 1)]
        for i in range(len(row) - wlen + 1):
            corpus.setdefault(tuple(row[i : i + wlen]), i - scale)
    escapes = []
    for w, a in sorted(corpus.items()):
        for b in range(wlen - span + 1):
            if not tg.contains(w[b : b + span]):
                escapes.append({"kind": "collar-escape", "window": list(w), "at": a + b})
                break
    return escapes


def oracle_collar_fill(sys, zprime, h, u):
    """The V^5 fill around the marker at ``h``: ``conf`` on the collar values read."""
    ctx = sys.ctx
    collar_vals = tuple(
        project_letter(zprime.value(ctx.mul(c, h)), sys.level, sys.base.stack)
        for c in sys.ring
    )
    collar = Pattern.on(sys.ring, collar_vals)
    return conf(ctx, sys.base, sys.level, sys.v5, collar, u, sys.sem)


def oracle_sample(graph, length, rng):
    """``TransferGraph.sample`` with its weighted DP table rebuilt on every call."""
    if not graph.states:
        raise SubshiftError("empty window language")
    if length <= graph.m:
        pts = sorted({s[:length] for s in graph.states})
        return pts[rng.randrange(len(pts))]
    steps = length - graph.m
    layers = [{s: 1 for s in graph.states}]
    for _ in range(steps):
        prev = layers[-1]
        layers.append({s: sum(prev[t] for _, t in graph.edges[s]) for s in graph.states})
    weights = layers[-1]
    pick = rng.randrange(sum(weights[s] for s in graph.states))
    for s in graph.states:
        if pick < weights[s]:
            break
        pick -= weights[s]
    word = list(s)
    cur = s
    for depth in range(steps - 1, -1, -1):
        wvec = layers[depth]
        pick = rng.randrange(sum(wvec[t] for _, t in graph.edges[cur]))
        for a, t in graph.edges[cur]:
            if pick < wvec[t]:
                word.append(a)
                cur = t
                break
            pick -= wvec[t]
    return tuple(word)


def oracle_marker_window_ok(spec, word):
    """Language membership read off the marker system's transfer graph."""
    return transfer_graph(spec).contains(word)


def oracle_verify_phi(sys, scale, samples=12, seed=0):
    """``verify_phi`` with the per-cell letter and the graph-based marker check."""
    ctx = sys.ctx
    bound = sys.syndetic_bound
    if 2 * scale + 1 < bound:
        raise ValueError(f"scale too small: the scan must cover the syndetic bound {bound}")
    f = sys.window
    flo, fhi = hull_interval(f)
    expected = set(level_pattern_list(ctx, sys.base, f, sys.level, sys.sem))
    tg = transfer_graph(sys.base)
    y = canonical_marker_point(sys)
    mspan = 3 * sys.marker_spacing
    marker_window_ok = oracle_marker_window_ok(
        max_separated_subshift(ctx, sys.v5)[0],
        tuple(y.value((t,)) for t in range(-mspan, mspan + 1)),
    )
    margin = scale + max(abs(flo), abs(fhi)) + 8 * sys.v_radius + 1
    length = 2 * margin + 1
    rng = random.Random(seed)
    words = [next(iter(tg.language(length)))]
    words += [oracle_sample(tg, length, rng) for _ in range(samples)]
    violations = []
    placements = 0
    stretches = 0
    for idx, word in enumerate(words):
        data = {(-margin + i,): word[i] for i in range(length)}
        zp = Configuration(ctx, lambda g, d=data: d[g], f"sample:{idx}")
        img = {t: oracle_phi_letter(sys, zp, y, (t,)) for t in range(-scale + flo, scale + fhi + 1)}
        pat_at = {}
        for t in range(-scale, scale + 1):
            p = Pattern.of(ctx, {x: img[x[0] + t] for x in f})
            pat_at[t] = p
            placements += 1
            if p not in expected:
                violations.append(
                    {"kind": "pattern-escape", "sample": idx, "at": t, "pattern": p.to_json(ctx)}
                )
        for a in range(-scale, scale - bound + 2):
            stretches += 1
            seen = {pat_at[t] for t in range(a - flo, a + bound - fhi) if t in pat_at}
            missing = expected - seen
            if missing:
                violations.append(
                    {"kind": "stretch-missing", "sample": idx, "at": a,
                     "missing": sorted_patterns(missing)[0].to_json(ctx)}
                )
        whole = set(pat_at.values())
        if whole != expected:
            violations.append(
                {"kind": "scan-pattern-set", "sample": idx,
                 "missing": [p.to_json(ctx) for p in sorted_patterns(expected - whole)],
                 "extra": [p.to_json(ctx) for p in sorted_patterns(whole - expected)]}
            )
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
    verdict = marker_window_ok and not violations
    return _PHI_CLAIM.envelope((*build, scale, samples, seed), scale, verdict, evidence)


def oracle_avoided(member_fn, lo, hi, radius):
    """Centres in ``[lo, hi]`` whose radius block misses the set, cell by cell."""
    return [
        h for h in range(lo, hi + 1)
        if all(not member_fn((h + t,)) for t in range(-radius, radius + 1))
    ]


# --- element order ----------------------------------------------------------------


@pytest.mark.parametrize("group,n", [("Z", 200), ("Z^2", 400), ("F2", 500), ("Z^3", 300)])
def test_elements_in_order_matches_ball_minus_seen(group, n):
    ctx = parse_group(group)
    got = list(itertools.islice(elements_in_order(ctx), n))
    assert got == list(itertools.islice(oracle_elements_in_order(ctx), n))


@pytest.mark.parametrize("name", ["z2", "z3", "klein", "s3", "z6"])
def test_elements_in_order_stops_on_finite_tables(name):
    ctx = parse_group(f"finite:{name}")
    assert list(elements_in_order(ctx)) == list(oracle_elements_in_order(ctx))
    assert len(list(elements_in_order(ctx))) == ctx.order


def _until_cap(gen):
    out = []
    try:
        for g in gen:
            out.append(g)
    except BallCapExceeded as exc:
        return out, str(exc)
    return out, None  # pragma: no cover - both generators are infinite here


@pytest.mark.parametrize("group,cap", [("Z", 1), ("Z", 6), ("Z", 7), ("Z^2", 12),
                                       ("Z^2", 13), ("F2", 17), ("F2", 52)])
def test_elements_in_order_raises_where_the_ball_would(group, cap, monkeypatch):
    monkeypatch.setenv("SYMDYN_MAX_BALL", str(cap))
    ctx = parse_group(group)
    got = _until_cap(elements_in_order(ctx))
    assert got == _until_cap(oracle_elements_in_order(ctx))
    assert len(got[0]) <= cap


# --- staged free point -----------------------------------------------------------


def _assert_same_point(ctx, got, want, assigned):
    assert got.stages == want.stages  # windows, placements, probes, targets
    assert got.support_radius == want.support_radius
    for g in ctx.ball(got.support_radius + 1):
        assert got.config.value(g) == assigned.get(g, 0)


@pytest.mark.parametrize("group,depth", [("Z", 1), ("Z", 2), ("Z", 3), ("Z", 4),
                                         ("Z^2", 1), ("Z^2", 2), ("F2", 1), ("F2", 2)])
def test_free_dense_point_matches_restarting_oracle(group, depth):
    ctx = parse_group(group)
    want, assigned = oracle_free_dense_point(ctx, depth)
    _assert_same_point(ctx, free_dense_point(ctx, depth), want, assigned)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z6", "klein", "s3"])
@pytest.mark.parametrize("depth", [1, 2])
def test_free_dense_point_on_finite_tables_matches_oracle(name, depth):
    ctx = parse_group(f"finite:{name}")
    try:
        want, assigned = oracle_free_dense_point(ctx, depth)
    except RuntimeError:
        # too few elements for disjoint stamps: both run out of sites
        with pytest.raises(ValueError, match=f"group finite:{name} .* depth {depth}"):
            free_dense_point(ctx, depth)
        return
    _assert_same_point(ctx, free_dense_point(ctx, depth), want, assigned)


@pytest.mark.parametrize(
    "group,depth",
    [*(("Z", d) for d in (1, 2, 3, 4, 5)), ("Z^2", 1), ("Z^2", 2), ("Z^3", 2), ("F2", 1),
     ("F2", 2), *((f"finite:{n}", d) for n in FINITE_TABLES for d in (1, 2))],
)
def test_free_dense_point_matches_the_stage_restarting_oracle(group, depth):
    ctx = parse_group(group)
    try:
        want, assigned = oracle_free_dense_point_by_stage(ctx, depth)
    except ValueError as exc:
        assert "no free site left" in str(exc)
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            free_dense_point(ctx, depth)
        return
    _assert_same_point(ctx, free_dense_point(ctx, depth), want, assigned)


@pytest.mark.parametrize("group,depth", [("Z", 5), ("Z^3", 2)])
def test_free_dense_point_probes_land_in_holes_of_the_block_search(group, depth):
    # a probe taken from the walked elements still unused comes before the
    # last block site of its stage: the fast search must find that same hole
    ctx = parse_group(group)
    stages = free_dense_point(ctx, depth).stages
    wanted = {g for st_ in stages for g in (st_.probe_site, *(s for _, s in st_.placements))}
    rank = {}
    for i, g in enumerate(elements_in_order(ctx)):
        if g in wanted:
            rank[g] = i
            if len(rank) == len(wanted):
                break
    assert any(rank[st_.probe_site] < max(rank[s] for _, s in st_.placements)
               for st_ in stages)


def test_free_dense_point_on_f2_stops_at_the_ball_cap(monkeypatch):
    monkeypatch.setenv("SYMDYN_MAX_BALL", "2000")
    t0 = time.perf_counter()
    with pytest.raises(BallCapExceeded, match=r"\|ball\(7\)\| exceeds SYMDYN_MAX_BALL=2000"):
        free_dense_point(F2, 3)
    assert time.perf_counter() - t0 < 10


# --- smallness -------------------------------------------------------------------

Z3 = parse_group("Z^3")
SMALL_GROUPS = {"Z": Z, "Z^2": Z2, "Z^3": Z3, "F2": F2,
                "finite:s3": parse_group("finite:s3"), "finite:z6": parse_group("finite:z6")}


@pytest.mark.parametrize("group", ["Z", "Z^2", "F2", *(f"finite:{n}" for n in FINITE_TABLES)])
def test_balls_are_powers_of_the_unit_ball(group):
    # the breadth-first walks behind is_small and syndeticity_witness step
    # by ball(1), so their layer rho is ball(rho)*sources minus ball(rho-1)*sources
    ctx = parse_group(group)
    for rho in range(4):
        assert ctx.ball(rho) == set_pow(ctx, ctx.ball(1), rho)


@st.composite
def smallness_cases(draw):
    ctx = SMALL_GROUPS[draw(st.sampled_from(sorted(SMALL_GROUPS)))]
    pool = ctx.ball(4 if ctx is Z else 2).elements
    shape = draw(st.sampled_from(["interval", "ball", "scatter"]))
    if shape == "interval" and ctx is Z:
        lo = draw(st.integers(-12, 0))
        region = FiniteSubset.of(ctx, [(n,) for n in range(lo, lo + draw(st.integers(0, 30)))])
    elif shape == "ball":
        # a ball with a few holes; ball(1) of a finite table is the whole group
        cells = ctx.ball(draw(st.integers(0, 9 if ctx is Z else 2))).elements
        holes = draw(st.lists(st.sampled_from(cells), max_size=3))
        region = FiniteSubset.of(ctx, [g for g in cells if g not in holes])
    else:
        region = FiniteSubset.of(ctx, draw(st.lists(st.sampled_from(pool), max_size=40)))
    if draw(st.booleans()):
        period = draw(st.integers(2, 7))
        marks = frozenset(draw(st.lists(st.integers(0, period - 1), max_size=3)))
        key = {Z: lambda g: g[0], Z2: lambda g: g[0] + 3 * g[1],
               Z3: lambda g: g[0] + 3 * g[1] + 5 * g[2], F2: len}.get(ctx, lambda g: g)

        def member(g):
            return key(g) % period in marks
    else:
        # hits reach past every region drawn, so members outside it count too
        hits = frozenset(draw(st.lists(st.sampled_from(ctx.ball(21 if ctx is Z else 4).elements),
                                       max_size=12)))

        def member(g):
            return g in hits
    return ctx, member, draw(st.integers(0, 3)), region, draw(st.integers(0, 7))


@settings(max_examples=200, deadline=None)
@given(smallness_cases())
def test_is_small_matches_per_pair_oracle(case):
    ctx, member, radius, region, cap = case
    assert is_small(ctx, member, radius, region, cap) == oracle_is_small(
        ctx, member, radius, region, cap
    )


@settings(max_examples=100, deadline=None)
@given(smallness_cases())
def test_is_small_asks_member_once_per_cell_it_can_reach(case):
    ctx, member, radius, region, cap = case
    asked = []

    def spy(g):
        asked.append(g)
        return member(g)

    is_small(ctx, spy, radius, region, cap)
    assert len(asked) == len(set(asked))
    assert set(asked) <= set_mul(ctx, ctx.ball(radius), region).as_set()


def _squares(g):
    return g[0] >= 0 and round(g[0] ** 0.5) ** 2 == g[0]


@pytest.mark.parametrize(
    "member,radius,lo,hi,cap,overall",
    [
        (_squares, 2, 0, 200, 60, "small-up-to-scale"),
        (lambda g: g[0] % 2 == 0, 1, 0, 120, 30, "not-small"),
        (lambda g: g[0] % 5 == 0, 2, 0, 40, 12, "not-small"),
        (lambda g: g[0] != 0, 0, 0, 6, 3, "small-up-to-scale"),  # gap 3, interior {3}
        (lambda g: True, 0, -3, 3, 4, "inconclusive"),  # nothing avoids, interior empties
        (lambda g: True, 1, -3, 3, 3, "not-small"),
    ],
)
def test_is_small_draws_every_verdict_like_the_oracle(member, radius, lo, hi, cap, overall):
    region = FiniteSubset.of(Z, [(n,) for n in range(lo, hi + 1)])
    got = is_small(Z, member, radius, region, cap)
    assert got == oracle_is_small(Z, member, radius, region, cap)
    assert got.overall == overall


@pytest.mark.parametrize("name", sorted(FINITE_TABLES))
@pytest.mark.parametrize("hits", [(), (0,), (1, 2), (0, 1, 2, 3)])
def test_is_small_on_a_whole_finite_group_matches_oracle(name, hits):
    # no cell lies outside the region, so every interior is the whole group
    ctx = parse_group(f"finite:{name}")
    for radius, cap in [(0, 0), (1, 0), (0, 3), (2, 3)]:
        got = is_small(ctx, lambda g: g in hits, radius, ctx.ball(1), cap)
        assert got == oracle_is_small(ctx, lambda g: g in hits, radius, ctx.ball(1), cap)


def test_interior_oracle_shrinks_region():
    region = FiniteSubset.of(Z, [(n,) for n in range(-5, 6)])
    inner = oracle_interior(Z, region, Z.ball(2))
    assert inner.elements == tuple((n,) for n in sorted(range(-3, 4), key=abs))


@st.composite
def syndeticity_cases(draw):
    ctx = SMALL_GROUPS[draw(st.sampled_from(sorted(SMALL_GROUPS)))]
    pool = ctx.ball(6 if ctx is Z else 2).elements
    s = FiniteSubset.of(ctx, draw(st.lists(st.sampled_from(pool), max_size=6)))
    region = FiniteSubset.of(ctx, draw(st.lists(st.sampled_from(pool), max_size=30)))
    return ctx, s, region, draw(st.integers(-1, 6))


@settings(max_examples=200, deadline=None)
@given(syndeticity_cases())
def test_syndeticity_witness_matches_ring_oracle(case):
    if case[3] < 0:
        # a negative cap is a usage error, as it is for is_small
        with pytest.raises(ValueError, match="syndetic cap must be >= 0"):
            syndeticity_witness(*case)
    else:
        assert syndeticity_witness(*case) == oracle_syndeticity_witness(*case)


def test_is_small_rejects_a_negative_radius_or_cap_by_name():
    # the radius is checked first, and the cap message is syndeticity_witness's
    region = FiniteSubset.of(Z, [(0,)])
    with pytest.raises(ValueError, match=r"^syndetic cap must be >= 0, got -1$"):
        is_small(Z, _squares, 0, region, -1)
    for cap in (-1, 0, 3):
        with pytest.raises(ValueError, match=r"^radius must be >= 0, got -1$"):
            is_small(Z, _squares, -1, region, cap)


# --- transfer graph --------------------------------------------------------------

SIZES = st.sampled_from([(1,), (2,), (3,), (2, 2), (1, 3), (2, 1), (1, 1, 2)])


@st.composite
def z_sft_specs(draw, sizes=SIZES, lo=-2, hi=3):
    sizes = draw(sizes)
    letters = SftSpec("Z", sizes, ()).letters()
    forbidden = []
    for _ in range(draw(st.integers(0, 5))):
        # sparse supports: any offsets in a short range, gaps allowed
        offsets = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3, unique=True))
        forbidden.append(Pattern.of(Z, {(o,): draw(st.sampled_from(letters)) for o in offsets}))
    return SftSpec("Z", sizes, tuple(forbidden), "random")


@settings(max_examples=150, deadline=None)
@given(z_sft_specs(), st.lists(st.integers(0, 9), min_size=1, max_size=6), st.integers(0, 2**16))
def test_sample_draws_the_words_of_the_per_call_table(spec, lengths, seed):
    # one graph answers every length in turn, shorter and longer ones
    # interleaved and each asked again, as it does for successive verify_phi runs
    graph = TransferGraph(spec)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for length in lengths + lengths[::-1]:
        if not graph.states:
            with pytest.raises(SubshiftError, match="empty window language"):
                graph.sample(length, got_rng)
            continue
        assert graph.sample(length, got_rng) == oracle_sample(graph, length, want_rng)
    assert got_rng.getstate() == want_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(z_sft_specs(), st.integers(0, 7))
def test_transfer_graph_matches_per_pattern_tail_check(spec, length):
    graph = TransferGraph(spec)
    states, edges = oracle_transfer_graph(spec)
    assert graph.states == states
    assert graph.edges == edges
    assert list(graph.language(length)) == oracle_language(states, edges, length)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(z_sft_specs(), st.sampled_from(["period2", "golden_mean"]).map(builtin_spec)),
    st.integers(0, 2),
    st.integers(1, 40),
)
def test_exact_gluing_mixing_gap_matches_path_scan(spec, radius, scale):
    # the search stops at the first repeated reach matrix, since power(n + 1)
    # is a function of power(n): a repeat before any full matrix means none
    # ever is, as on period2, whose matrices alternate
    _assert_mixing_gap_matches(spec, radius, scale)


def test_mixing_search_on_period2_stops_at_the_first_repeated_matrix(monkeypatch):
    # period2's reach matrices alternate from n = 1, so a scan at scale 2000
    # asks for a handful of powers, not 4001
    asked = []
    original = TransferGraph.power

    def power(self, n):
        asked.append(n)
        return original(self, n)

    monkeypatch.setattr(TransferGraph, "power", power)
    report = check_irreducible(Z, builtin_spec("period2"), 1, Z.ball(2), 2000)
    assert (report.holds, report.mixing_gap) == (False, None)
    assert max(asked) <= 4


@pytest.mark.parametrize(
    "sizes, forbidden",
    [
        ((2,), []),  # no forbidden pattern: m = 0, one state
        ((2,), [{0: 1}]),  # a single cell
        ((2,), [{0: 0}, {0: 1}]),  # every letter forbidden: empty graph
        ((2,), [{0: 1, 3: 1}, {0: 0, 1: 0}]),  # a sparse pattern beside a contiguous one
        ((2,), [{-2: 1, 0: 0, 2: 1}]),
        # duplicates once normalised
        ((2,), [{0: 1, 2: 1}, {-2: 1, 0: 1}, {0: 1, 2: 1}, {0: 0, 1: 0}]),
        ((2, 2), [{0: (1, 1), 1: (1, 0)}, {0: (0, 1), 2: (0, 1)}]),  # stacked letters
        ((2,), [{0: 1, 1: 1}, {0: 2}, {0: 5, 3: 0}]),  # letters outside the alphabet
    ],
)
def test_transfer_graph_fixed_specs_match_oracle(sizes, forbidden):
    spec = SftSpec(
        "Z", sizes, tuple(Pattern.of(Z, {(o,): v for o, v in p.items()}) for p in forbidden), "f"
    )
    graph = TransferGraph(spec)
    states, edges = oracle_transfer_graph(spec)
    assert (graph.states, graph.edges) == (states, edges)
    for length in range(6):
        assert list(graph.language(length)) == oracle_language(states, edges, length)
    _assert_mixing_gap_matches(spec, 1, 2)


def _outside(spec):
    """A letter shaped like the spec's letters that lies outside its alphabet."""
    return (9,) * spec.stack if spec.stack > 1 else 9


def _assert_rows_match(spec):
    graph = TransferGraph(spec)
    k = len(graph.states)
    masks = [1 << i for i in range(k)] + [graph.full]
    for level in range(1, spec.stack + 1):
        powers, fwd = oracle_gluer_rows(graph, spec, level)
        pre = level_preimages(spec, level)
        # the interval gluer steps a level letter through its preimages
        for v, rows in fwd.items():
            for mask in masks:
                ahead = functools.reduce(
                    operator.or_, (rows[i] for i in range(k) if mask >> i & 1), 0
                )
                assert graph.step(mask, pre[v]) == ahead
                behind = sum(1 << i for i in range(k) if rows[i] & mask)
                assert graph.step(mask, pre[v], back=True) == behind
    for n, rows in enumerate(powers):
        assert graph.power(n) == rows
    assert graph.full == functools.reduce(operator.or_, powers[0], 0)
    for n in range(6):
        reach = oracle_reach(graph, n)
        got = [{t for t in graph.states if row >> graph.index[t] & 1} for row in graph.power(n)]
        assert got == [reach[s] for s in graph.states]


@st.composite
def allowed_maps(draw, letters, length):
    """Letter sets at random positions, some outside the window."""
    cells = draw(st.lists(st.integers(-1, length + 1), max_size=length + 2, unique=True))
    pool = st.sampled_from(letters)
    return {p: frozenset(draw(st.lists(pool, max_size=len(letters)))) for p in cells}


@settings(max_examples=200, deadline=None)
@given(z_sft_specs(), st.data())
def test_feasible_matches_set_walk(spec, data):
    graph = TransferGraph(spec)
    letters = graph.letters + (_outside(spec),)
    # below, at and above the state length m
    for length in sorted({max(graph.m - 1, 0), graph.m, graph.m + 1, graph.m + 4}):
        allowed = data.draw(allowed_maps(letters, length))
        assert graph.feasible(length, allowed) == oracle_feasible(graph, length, allowed)


@settings(max_examples=200, deadline=None)
@given(z_sft_specs(), st.data())
def test_contains_matches_edge_walk(spec, data):
    graph = TransferGraph(spec)
    letters = graph.letters + (_outside(spec),)
    words = st.lists(st.sampled_from(letters), max_size=graph.m + 4).map(tuple)
    for length in range(graph.m + 4):
        inside = list(itertools.islice(graph.language(length), 30))
        assert all(graph.contains(w) for w in inside)
        assert all(oracle_contains(graph, w) for w in inside)
    for w in data.draw(st.lists(words, max_size=12)):
        assert graph.contains(w) == oracle_contains(graph, w)


@settings(max_examples=150, deadline=None)
@given(z_sft_specs(), st.data())
def test_exact_is_admissible_matches_language_scan(spec, data):
    # scattered cells, plain and stacked letters, some outside the alphabet
    letters = spec.letters() + (_outside(spec),)
    cells = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    p = Pattern.of(Z, {(c,): data.draw(st.sampled_from(letters)) for c in cells})
    lo, hi = hull_interval(p.domain)
    states, edges = oracle_transfer_graph(spec)
    want = any(
        all(w[g[0] - lo] == v for g, v in p.items())
        for w in oracle_language(states, edges, hi - lo + 1)
    )
    assert is_admissible(Z, spec, p, EXACT) == want


def test_exact_is_admissible_walks_the_hull_once(monkeypatch):
    # feasibility reads the forward walk alone: one step per hull cell, and
    # no backward walk, which only probes and fixes read
    spec = builtin_spec("golden_mean")
    steps = []
    original = TransferGraph.step

    def counting(self, *args, **kwargs):
        steps.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TransferGraph, "step", counting)
    p = Pattern.of(Z, {(0,): 1, (7,): 0, (20,): 1})
    assert is_admissible(Z, spec, p, EXACT)
    assert len(steps) == 21


@settings(max_examples=200, deadline=None)
@given(z_sft_specs(lo=-1, hi=2))  # up to 64 states: the set oracles are quadratic
def test_power_rows_match_set_reachability(spec):
    _assert_rows_match(spec)


@pytest.mark.parametrize(
    "forbidden",
    [
        [],  # the full shift: one state when m = 0
        [{0: 0}, {0: 1}],  # every letter forbidden: empty graph
        [{0: 1, 1: 0}, {0: 1, 1: 1}],  # transient state: nothing follows a 1
        [{0: 1, 3: 1}, {0: 0, 1: 0}],
    ],
)
def test_bit_walks_match_oracles_on_fixed_specs(forbidden):
    spec = SftSpec(
        "Z", (2,), tuple(Pattern.of(Z, {(o,): v for o, v in p.items()}) for p in forbidden), "f"
    )
    graph = TransferGraph(spec)
    _assert_rows_match(spec)
    for length in range(7):
        for allowed in ({}, {0: (1,)}, {length - 1: (0,)}, {1: (0, 1), 2: (9,)}):
            assert graph.feasible(length, allowed) == oracle_feasible(graph, length, allowed)
        for w in itertools.product((0, 1, 9), repeat=min(length, 5)):
            assert graph.contains(w) == oracle_contains(graph, w)


# --- exact interval gluing ----------------------------------------------------------

# asymmetric sets, singletons and sets without 0, spread up to 8
Z_DOMAINS = st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True).map(
    lambda xs: FiniteSubset.of(Z, [(x,) for x in xs])
)


@settings(max_examples=200, deadline=None)
@given(z_sft_specs(), Z_DOMAINS, st.integers(1, 8), st.data())
def test_exact_scan_matches_per_class_apartness_oracle(spec, d, scale, data):
    level = data.draw(st.integers(1, spec.stack))
    got = check_irreducible(Z, spec, level, d, scale)
    want = oracle_check_irreducible_exact(Z, spec, level, d, scale)
    assert got == want
    assert got.to_json(Z) == want.to_json(Z)


@settings(max_examples=200, deadline=None)
@given(Z_DOMAINS)
def test_apart_span_matches_are_apart_on_every_class(d):
    diffs = _positive_differences(d)
    assert _min_apart_gap(diffs) == oracle_min_apart_gap(Z, d)
    for gap in range(11):
        span = _apart_span(diffs, gap)
        for l1, l2 in itertools.product(range(1, 7), repeat=2):
            e1 = FiniteSubset.of(Z, [(i,) for i in range(l1)])
            e2 = FiniteSubset.of(Z, [(l1 + gap + i,) for i in range(l2)])
            apart = span is None or l1 + l2 <= span
            assert apart == oracle_are_apart(Z, d, e1, e2), (gap, l1, l2)


@pytest.mark.parametrize(
    "name,d,scale",
    [
        ("golden_mean", [-1, 0, 3], 12),
        ("full_shift", [0, 2, 5], 10),
        ("period2", [-2, -1, 0, 1, 2], 10),
        ("golden_mean", [7], 6),
    ],
)
def test_exact_scan_matches_oracle_on_builtins(name, d, scale):
    spec = builtin_spec(name)
    dom = FiniteSubset.of(Z, [(x,) for x in d])
    assert check_irreducible(Z, spec, 1, dom, scale) == oracle_check_irreducible_exact(
        Z, spec, 1, dom, scale
    )


# no 000 and no two 0s three apart: single 0s glue at gap 0 but not at
# gap 2, with the same behavior sets on both sides
NO_FAR_ZEROS = SftSpec(
    "Z", (2,),
    (Pattern.of(Z, {(0,): 0, (1,): 0, (2,): 0}), Pattern.of(Z, {(0,): 0, (3,): 0})),
    "no_far_zeros",
)


def test_exact_scan_memo_keeps_the_gap_in_its_key():
    d = FiniteSubset.of(Z, [(0,), (2,)])
    report = check_irreducible(Z, NO_FAR_ZEROS, 1, d, 2)
    assert report == oracle_check_irreducible_exact(Z, NO_FAR_ZEROS, 1, d, 2)
    assert (report.pairs_checked, report.counterexample.gap) == (2, 2)


def test_exact_scan_decides_only_key_pairs_that_co_occur():
    # no two 0s three apart, D = {0, 3}: at gap 0 only l1 + l2 <= 3 is apart;
    # 0|0, 0|?0 and ?0|0 glue there, while the longer 0?|?0 would not
    spec = SftSpec("Z", (2,), (Pattern.of(Z, {(0,): 0, (3,): 0}),), "no_zeros_three_apart")
    d = FiniteSubset.of(Z, [(0,), (3,)])
    report = check_irreducible(Z, spec, 1, d, 4)
    assert report == oracle_check_irreducible_exact(Z, spec, 1, d, 4)
    assert report.holds


def _asymmetric(xs):
    return {-x for x in xs} != set(xs)


# stacked alphabets, so that levels below the top merge letters
STACKED = st.sampled_from([(2, 2), (1, 3), (2, 1), (1, 1, 2), (2, 1, 2)])
ASYMMETRIC_DOMAINS = (
    st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True)
    .filter(_asymmetric)
    .map(lambda xs: FiniteSubset.of(Z, [(x,) for x in xs]))
)


@settings(max_examples=25, deadline=None)
@given(z_sft_specs(sizes=STACKED), ASYMMETRIC_DOMAINS, st.integers(8, 14))
def test_exact_scan_matches_oracle_on_stacked_specs_at_every_level(spec, d, scale):
    # at these scales each behavior set recurs over many lengths, so the
    # scan decides a gap's key pairs far fewer times than it has classes
    for level in range(1, spec.stack + 1):
        got = check_irreducible(Z, spec, level, d, scale)
        assert got == oracle_check_irreducible_exact(Z, spec, level, d, scale), level


@pytest.mark.parametrize(
    "spec,d,scale,decided",
    [
        # fails at its first apart class: one class decided, one length read
        (builtin_spec("period2"), [-2, -1, 0, 1, 2], 24, [(1, 4, 1)]),
        # the per-class scan decided both of its classes too
        (NO_FAR_ZEROS, [0, 2], 2, [(1, 0, 1), (1, 2, 1)]),
    ],
)
def test_exact_scan_decides_classes_lazily_in_scan_order(monkeypatch, spec, d, scale, decided):
    seen, lengths = [], []

    def counting(name, log):
        original = getattr(_IntervalGluer, name)

        def wrapped(self, *args):
            log.append(args)
            return original(self, *args)

        monkeypatch.setattr(_IntervalGluer, name, wrapped)

    counting("class_counterexample", seen)
    counting("er_groups", lengths)
    counting("en_groups", lengths)
    check_irreducible(Z, spec, 1, FiniteSubset.of(Z, [(x,) for x in d]), scale)
    assert seen == decided
    assert max(n for n, in lengths) == max(max(l1, l2) for l1, _, l2 in decided)


@pytest.mark.parametrize(
    "spec,d,scale,read",
    [
        # golden mean over ball(2): no class is apart below the mixing gap 2
        # (a gap of 0 or 1 leaves span 1), so no length is read at all
        (builtin_spec("golden_mean"), Z.ball(2), 200, set()),
        # the maximal 2-separation system mixes at 14, above its least apart
        # gap 12; its families first repeat at length 9, so gaps 12 and 13
        # read lengths 1..9 and no others
        (*max_separated_subshift(Z, Z.ball(2)), 16, set(range(1, 10))),
    ],
    ids=["golden_mean", "msep2"],
)
def test_exact_scan_reads_lengths_only_to_the_first_repeated_family(
    monkeypatch, spec, d, scale, read
):
    lengths = set()
    for name in ("er_groups", "en_groups"):
        original = getattr(_IntervalGluer, name)

        def wrapped(self, length, original=original):
            lengths.add(length)
            return original(self, length)

        monkeypatch.setattr(_IntervalGluer, name, wrapped)
    report = check_irreducible(Z, spec, 1, d, scale)
    assert report.holds
    assert lengths == read


@pytest.mark.parametrize(
    "spec,d,scale",
    [
        (builtin_spec("golden_mean"), Z.ball(2), 200),
        (*max_separated_subshift(Z, Z.ball(2)), 16),
        (*max_separated_subshift(Z, Z.ball(1)), 16),
        (builtin_spec("full_shift"), Z.ball(1), 10),
    ],
    ids=["golden_mean", "msep2", "msep1", "full_shift"],
)
def test_exact_scan_decides_no_gap_past_the_mixing_gap(monkeypatch, spec, d, scale):
    # from the mixing gap on every reach row is full and every behavior set
    # is non-zero, so no class can fail there and none is decided
    gaps = []
    original = _IntervalGluer.first_failure

    def first_failure(self, gap, span):
        gaps.append(gap)
        return original(self, gap, span)

    monkeypatch.setattr(_IntervalGluer, "first_failure", first_failure)
    report = check_irreducible(Z, spec, 1, d, scale)
    assert report.holds and report.mixing_gap is not None
    assert gaps == list(range(min(report.mixing_gap, 2 * scale)))


@settings(max_examples=15, deadline=None)
@given(z_sft_specs(sizes=st.one_of(SIZES, STACKED)), Z_DOMAINS, st.integers(6, 14), st.data())
def test_exact_scan_cut_at_the_mixing_gap_matches_the_per_class_scan(spec, d, scale, data):
    # at these scales the gap loop runs well past most specs' mixing gap,
    # and failing draws must report the same first counterexample
    level = data.draw(st.integers(1, spec.stack))
    got = check_irreducible(Z, spec, level, d, scale)
    want = oracle_check_irreducible_exact(Z, spec, level, d, scale)
    assert got == want
    assert got.to_json(Z) == want.to_json(Z)


def test_exact_scan_builds_each_family_once(monkeypatch):
    # the maximal 2-separation system's families first repeat at length 9
    # in both directions; one scan builds each length's family once, not
    # once per gap (l1) and once per l1 (l2)
    spec, witness = max_separated_subshift(Z, Z.ball(2))
    fresh = _IntervalGluer(spec, 1)
    firsts = [oracle_first_lengths(groups, 40) for groups in (fresh.er_groups, fresh.en_groups)]
    assert firsts == [list(range(1, 9))] * 2
    builds, inside = [], []

    def counting_frozenset(*args):
        if inside:
            builds.append(args)
        return frozenset(*args)

    original = _IntervalGluer.first_failure

    def first_failure(self, *args):
        inside.append(args)
        try:
            return original(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(irreducibility, "frozenset", counting_frozenset, raising=False)
    monkeypatch.setattr(_IntervalGluer, "first_failure", first_failure)
    report = check_irreducible(Z, spec, 1, witness, 16)
    assert report.holds
    # lengths 1..8 in each direction, plus length 9, the first repeat
    assert len(builds) == 2 * 9


def test_kept_family_lengths_answer_every_later_limit():
    # one gluer's lengths serve every gap's limit, below and past the repeat
    spec, _ = max_separated_subshift(Z, Z.ball(2))
    engine = _IntervalGluer(spec, 1)
    for kept, groups in ((engine._er_lengths, engine.er_groups),
                         (engine._en_lengths, engine.en_groups)):
        for limit in (3, 40, 5, 0, 12, 40):
            assert list(kept.upto(groups, limit)) == oracle_first_lengths(groups, limit), limit


def oracle_first_lengths(groups, limit):
    """First length of each distinct family of bit sets, reading every length."""
    firsts = {}
    for length in range(1, limit + 1):
        firsts.setdefault(frozenset(bits for bits, _ in groups(length)), length)
    return sorted(firsts.values())


@settings(max_examples=60, deadline=None)
@given(z_sft_specs(sizes=STACKED))
def test_scan_lengths_are_the_first_lengths_of_distinct_families(spec):
    # the family at l + 1 is a function of the family at l, so stopping at
    # the first repeat finds every family's first length
    for level in range(1, spec.stack + 1):
        engine = _IntervalGluer(spec, level)
        for groups in (engine.er_groups, engine.en_groups):
            assert list(_NewLengths().upto(groups, 40)) == oracle_first_lengths(groups, 40), level


def test_scan_lengths_stop_at_a_repeat_of_any_earlier_family():
    # no Z SFT tried so far has a family sequence of period above 1, so a
    # stand-in map pins the rule: length 4 repeats length 2, not length 3
    def groups(length):
        return ((1 if length == 1 else 2 + length % 2, ()),)

    assert list(_NewLengths().upto(groups, 9)) == oracle_first_lengths(groups, 9) == [1, 2, 3]


def test_interval_gluer_is_freed_without_the_cycle_collector():
    # a verify run scans many certificates in one process; a gluer kept
    # alive by a reference cycle would hold its words until a collection
    engine = _IntervalGluer(builtin_spec("golden_mean"), 1)
    assert engine.first_failure(4, 30) is None
    ref = weakref.ref(engine)
    gc.disable()
    try:
        del engine
        assert ref() is None
    finally:
        gc.enable()


# --- exact against local semantics --------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    z_sft_specs(sizes=st.sampled_from([(2,), (3,), (1, 2), (2, 1), (2, 2)]), lo=-1, hi=2),
    st.integers(1, 3),
    st.integers(-2, 2),
)
def test_local_with_a_long_margin_equals_exact(spec, width, lo):
    # A fill reaching N + m cells past each side of the window meets some
    # length-m state twice on each side (N is the untrimmed state count), and
    # repeating those cycles extends it to a point: local(N + m) is exact.
    margin = len(oracle_untrimmed_states(spec)) + TransferGraph(spec).m
    f = FiniteSubset.of(Z, [(lo + i,) for i in range(width)])
    assert pattern_set(Z, spec, f, local(margin)) == pattern_set(Z, spec, f, EXACT)


def test_local_zero_differs_from_exact_on_a_dead_end():
    # nothing may follow a 1: alone it shows no forbidden pattern, yet no point has it
    spec = SftSpec(
        "Z", (2,), (Pattern.of(Z, {(0,): 1, (1,): 0}), Pattern.of(Z, {(0,): 1, (1,): 1})), "end"
    )
    f = FiniteSubset.of(Z, [(0,)])
    zero, one = Pattern.of(Z, {(0,): 0}), Pattern.of(Z, {(0,): 1})
    assert pattern_set(Z, spec, f, EXACT) == {zero}
    assert pattern_set(Z, spec, f, local(0)) == {zero, one}
    assert pattern_set(Z, spec, f, local(1)) == {zero}


# --- the exact gluing function -----------------------------------------------------


@st.composite
def conf_domains(draw, max_width=16):
    """A scattered domain whose hull of up to ``max_width`` cells lies wholly
    below 0, wholly at or above 0, or across 0, so the fixed cells of exact
    ``conf`` grow leftward, rightward or both ways."""
    width = draw(st.integers(1, max_width))
    where = draw(st.sampled_from(["below", "above"] + ["across"] * (width > 1)))
    if where == "below":
        lo = draw(st.integers(-width - 3, -width))
    elif where == "above":
        lo = draw(st.integers(0, 3))
    else:
        lo = draw(st.integers(1 - width, -1))
    hi = lo + width - 1
    inner = draw(st.sets(st.integers(lo, hi)))
    return FiniteSubset.of(Z, [(c,) for c in {lo, hi} | inner])


@settings(max_examples=400, deadline=None)
@given(z_sft_specs(), conf_domains(), st.data())
def test_exact_conf_matches_hull_loop(spec, f, data):
    level = data.draw(st.integers(1, spec.stack))
    level_letters = sorted(level_preimages(spec, level))
    # no clamps at all is a join of two empty patterns
    clamped = [g for g in f if data.draw(st.booleans())]
    split = data.draw(st.integers(0, len(clamped)))
    values = {g: data.draw(st.sampled_from(level_letters)) for g in clamped}
    alpha1 = Pattern.of(Z, {g: values[g] for g in clamped[:split]})
    alpha2 = Pattern.of(Z, {g: values[g] for g in clamped[split:]})
    want = oracle_conf_exact(Z, spec, level, f, alpha1, alpha2)
    if want is None:
        with pytest.raises(GluingError):
            conf(Z, spec, level, f, alpha1, alpha2)
    else:
        assert conf(Z, spec, level, f, alpha1, alpha2) == want


@pytest.mark.parametrize(
    "forbidden, cells, clamps",
    [
        ([], [-2, 0, 3], {}),  # m = 0 and no clamps
        ([{0: 0}], [-1, 1, 2], {2: 1}),  # m = 0, one letter forbidden
        ([{0: 1, 4: 1}], [0, 2], {0: 1}),  # a hull shorter than m = 4
        ([{0: 1, 4: 1}, {0: 1, 1: 1}], range(3, 11), {4: 1}),  # cells before m, growing right
        ([{0: 1, 2: 1}, {0: 1, 1: 1}], range(-9, -1), {-9: 1}),  # growing left
        ([{0: 1, 3: 1}, {0: 0, 1: 0}], range(-5, 6), {-5: 1, 5: 1}),  # both ways
        ([{0: 0, 1: 0}], [0, 2, 3], {}),  # fixing right across a free cell
        ([{0: 0, 2: 0}], range(-4, 0), {-2: 1}),  # fixing left across a clamp
        ([{0: 0, 1: 0}], [-6, -3, -2, -1], {-3: 0}),  # probing left across a clamp
        ([{0: 0, 1: 0}], [-2, -1], {-2: 0}),  # a clamp before the first free cell
    ],
)
def test_exact_conf_corner_cases_match_hull_loop(forbidden, cells, clamps):
    spec = SftSpec(
        "Z", (2,), tuple(Pattern.of(Z, {(o,): v for o, v in p.items()}) for p in forbidden), "f"
    )
    f = FiniteSubset.of(Z, [(c,) for c in cells])
    alpha = Pattern.of(Z, {(c,): v for c, v in clamps.items()})
    want = oracle_conf_exact(Z, spec, 1, f, alpha, Pattern.of(Z, {}))
    assert want is not None
    assert conf(Z, spec, 1, f, alpha, Pattern.of(Z, {})) == want


# --- densification and shattering ---------------------------------------------------

PHI_BUILTINS = [
    ("full_shift", [0], 1),
    ("full_shift", [0, 1], 1),
    ("full_shift", [0, 1, 2], 1),
    ("golden_mean", [0, 1], 1),
    ("golden_mean", [0, 1, 2], 1),
    ("golden_mean", [-1, 1], 1),
]


def _outcome(fn, *args):
    """The canonical JSON ``fn`` returns, or the type and text of what it raises."""
    try:
        return canonical_json(fn(*args))
    except (ConstructionError, GluingError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def phi_cases(draw):
    """A base system (builtin, or a random two-letter Z SFT on one or two levels),
    a window of one to three cells and a level."""
    if draw(st.booleans()):
        name, cells, level = draw(st.sampled_from(PHI_BUILTINS))
        spec = builtin_spec(name)
    else:
        spec = draw(z_sft_specs(sizes=st.sampled_from([(2,), (2, 1), (1, 2)]), lo=-1, hi=2))
        cells = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=2, unique=True))
        level = draw(st.integers(1, spec.stack))
    return spec, FiniteSubset.of(Z, [(c,) for c in cells]), level


STAMP_CONTEXTS = {"Z^2": Z2, "F2": F2, "finite:s3": parse_group("finite:s3"),
                  "finite:z4": parse_group("finite:z4")}


@st.composite
def local_phi_cases(draw):
    """A random SFT on Z^2, F2 or a finite group under ``local(m)``, with
    forbidden domains and a window in ``ball(1)``, searched up to radius 1
    (all of a finite group); systems with one window pattern and windows
    with fewer slots than patterns make failing draws."""
    group = draw(st.sampled_from(sorted(STAMP_CONTEXTS)))
    ctx = STAMP_CONTEXTS[group]
    sizes = draw(st.sampled_from([(2,), (3,), (2, 1), (1, 2)]))
    letters = SftSpec(group, sizes, ()).letters()
    cells = ctx.ball(1).elements
    domains = draw(st.lists(st.lists(st.sampled_from(cells), min_size=1, max_size=2, unique=True),
                            max_size=3))
    forbidden = tuple(
        Pattern.of(ctx, {g: draw(st.sampled_from(letters)) for g in dom}) for dom in domains
    )
    spec = SftSpec(group, sizes, forbidden, "random")
    f = FiniteSubset.of(ctx, draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2,
                                           unique=True)))
    level = draw(st.integers(1, spec.stack))
    return ctx, spec, f, level, local(draw(st.integers(0, 1))), 1, 1


def _stamp_core_agrees(ctx, spec, f, level, sem, witness_scale, max_v_radius):
    args = (ctx, spec, level, f, witness_scale, sem, max_v_radius)
    try:
        want = oracle_stamp_core(*args)
    except ConstructionError as exc:
        with pytest.raises(ConstructionError, match=re.escape(str(exc))):
            _stamp_core(*args)
        return None
    got = _stamp_core(*args)
    assert got == want[:2]
    return got


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    phi_cases().map(lambda case: (Z, case[0], case[1], case[2], EXACT, 6, 5)),
    local_phi_cases(),
))
def test_stamp_core_matches_nested_search(case):
    _stamp_core_agrees(*case)


def _hard_pairs(ctx, gens):
    return SftSpec(ctx.describe(), (2,), tuple(Pattern.of(ctx, {ctx.identity: 1, g: 1})
                                               for g in gens), "hard")


@pytest.mark.parametrize(
    "ctx,spec,cells,sem,witness_scale,searched",
    [
        # 8 patterns: radii 2, 3 and 4 have 3, 5 and 7 slots
        (Z, builtin_spec("full_shift"), [(0,), (1,), (2,)], EXACT, 6, [5]),
        # 3 patterns: radius 1 has 2 slots
        (Z, builtin_spec("golden_mean"), [(0,), (1,)], EXACT, 6, [2]),
        # 2 patterns: radius 0 has 1 slot
        (Z2, _hard_pairs(Z2, [(1, 0), (0, 1)]), [(0, 0)], local(1), 2, [1]),
        (F2, _hard_pairs(F2, ["a", "b"]), [F2.identity], local(1), 1, [1]),
    ],
)
def test_stamp_core_searches_radii_with_enough_slots(monkeypatch, ctx, spec, cells, sem,
                                                     witness_scale, searched):
    radii = []
    least_stamp = constructions._least_stamp

    def record(ctx, spec, level, v, *rest):
        radii.append(max(ctx.word_length(g) for g in v))
        return least_stamp(ctx, spec, level, v, *rest)

    monkeypatch.setattr(constructions, "_least_stamp", record)
    f = FiniteSubset.of(ctx, cells)
    got = _stamp_core_agrees(ctx, spec, f, 1, sem, witness_scale, 5 if ctx is Z else 1)
    assert radii == searched
    # the least admissible V-pattern shows too few window patterns
    v_radius, u = got
    assert u != level_pattern_list(ctx, spec, ctx.ball(v_radius), 1, sem)[0]


def test_build_phi_refuses_bad_bounds_before_the_stamp_search(monkeypatch):
    def never(*args):
        raise AssertionError("the stamp search ran")

    monkeypatch.setattr(constructions, "_stamp_core", never)
    spec, f = _hard_pairs(Z2, [(1, 0), (0, 1)]), Z2.ball(0)
    with pytest.raises(ValueError, match="witness scale must be >= 1, got 0"):
        build_phi(Z2, spec, 1, f, 0, local(1))
    with pytest.raises(ValueError, match="max v radius must be >= 0, got -1"):
        build_phi(Z2, spec, 1, f, 2, local(1), -1)


@pytest.mark.parametrize(
    "ctx,spec,sem,witness_scale",
    [
        (Z, builtin_spec("full_shift"), EXACT, 6),
        (Z2, _hard_pairs(Z2, [(1, 0), (0, 1)]), local(1), 2),
        (F2, _hard_pairs(F2, ["a", "b"]), local(1), 1),
        (STAMP_CONTEXTS["finite:z4"], SftSpec("finite:z4", (2,), ()), local(1), 1),
    ],
    ids=["Z", "Z^2", "F2", "finite:z4"],
)
def test_marker_balls_are_built_on_first_use(ctx, spec, sem, witness_scale):
    sys = build_phi(ctx, spec, 1, ctx.ball(0), witness_scale, sem, 2)
    assert not {"v3", "v5", "ring"} & vars(sys).keys()
    r = sys.v_radius
    assert sys.v3 == ctx.ball(3 * r)
    assert sys.v5 == ctx.ball(5 * r)
    assert sys.ring == FiniteSubset.of(ctx, [g for g in ctx.ball(5 * r)
                                             if g not in ctx.ball(3 * r)])


def test_build_phi_off_z_builds_no_ball_only_the_rewrite_reads(monkeypatch):
    # F2's ball(10) holds 88573 elements; only the rewrite, on Z alone,
    # reads V^3 and V^5
    radii = []
    ball = GroupContext.ball

    def record(self, r):
        radii.append(r)
        return ball(self, r)

    monkeypatch.setattr(GroupContext, "ball", record)
    f = FiniteSubset.of(F2, [F2.identity, "a"])
    sys = build_phi(F2, _hard_pairs(F2, ["a", "b"]), 1, f, 1, local(1), 2)
    assert sys.v_radius == 2
    assert radii and max(radii) < 3 * sys.v_radius


def test_phi_point_off_z_is_refused():
    # marker hits are placed by integer offset, so the rewrite needs Z
    f = FiniteSubset.of(F2, [F2.identity, "a"])
    sys = build_phi(F2, _hard_pairs(F2, ["a", "b"]), 1, f, 1, local(1), 2)
    point = mapping_configuration(F2, {}, 0)
    with pytest.raises(SubshiftError, match="rank-1 lattice"):
        phi_point(sys, point, point)


@settings(max_examples=40, deadline=None)
@given(phi_cases(), st.data())
def test_verify_phi_matches_per_cell_oracle(case, data):
    spec, f, level = case
    try:
        sys = build_phi(Z, spec, level, f, max_v_radius=5)
    except ConstructionError:
        return  # no displaying ball: test_stamp_core_matches_nested_search covers it
    s = sys.marker_spacing
    if sys.v_radius > 0 and data.draw(st.booleans()):
        # a wrong spacing (s - 1 breaks the marker window) or a wrong stamp
        # (the window patterns go missing) must be reported the same way
        s = data.draw(st.sampled_from([s - 1, s, s + 1]))
        stamps = level_pattern_list(Z, sys.base, sys.v, sys.level, EXACT)
        u = data.draw(st.sampled_from(stamps))
        sys = copy.copy(sys)
        sys.marker_spacing, sys.u, sys._conf_memo = s, u, {}
    scale = (sys.syndetic_bound + 1) // 2 + data.draw(st.integers(-1, 5))
    samples = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 2**16))
    got = _outcome(verify_phi, sys, scale, samples, seed)
    assert got == _outcome(oracle_verify_phi, sys, scale, samples, seed)


def _z_spec(forbidden, name, alphabet=2):
    return SftSpec(
        "Z", (alphabet,),
        tuple(Pattern.of(Z, {(o,): v for o, v in p.items()}) for p in forbidden), name,
    )


# Collar fills here depend on where each marker falls in the base point, so
# a collar fill reused across markers would show.
GAP_SHIFT = _z_spec([{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}], "gap_shift")
NO_11_NO_000 = _z_spec([{0: 1, 1: 1}, {0: 0, 1: 0, 2: 0}], "no_11_no_000")


@pytest.mark.parametrize(
    "spec,cells",
    [(GAP_SHIFT, [0]), (GAP_SHIFT, [0, 1]), (GAP_SHIFT, [0, 2]), (NO_11_NO_000, [0, 1])],
)
def test_verify_phi_matches_oracle_where_collar_fills_differ(spec, cells):
    sys = build_phi(Z, spec, 1, FiniteSubset.of(Z, [(c,) for c in cells]))
    scale = (sys.syndetic_bound + 1) // 2
    want = oracle_verify_phi(sys, scale, 3, 1)
    assert want["verdict"]
    assert canonical_json(verify_phi(sys, scale, 3, 1)) == canonical_json(want)


def _fill_outcome(fill, *args):
    """The V^3 values of a collar fill, or the type and text of what it raises."""
    try:
        q = fill(*args)
    except (GluingError, SubshiftError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(q.value_at(g) for g in args[0].v3)


@settings(max_examples=150, deadline=None)
@given(z_sft_specs(sizes=st.one_of(SIZES, STACKED)), st.data())
def test_collar_fill_matches_per_collar_oracle(spec, data):
    # one system glues many random collars in turn, so fills its memo shares
    # between collars with the same boundary states are checked against conf
    level = data.draw(st.integers(1, spec.stack))
    r = data.draw(st.integers(1, 2))
    sem = data.draw(st.sampled_from([EXACT, EXACT, local(1)]))
    pre = level_preimages(spec, level)
    v = Z.ball(r)
    u = Pattern.on(v, tuple(data.draw(st.sampled_from(sorted(pre))) for _ in v))
    sys = PhiSystem(Z, spec, level, v, sem, 6, r, r, u)
    letters = st.sampled_from(sorted(spec.letters()))
    spacing = 10 * r + 1
    markers = range(data.draw(st.integers(1, 8)))
    cells = {(h * spacing + c[0],): data.draw(letters) for h in markers for c in sys.ring}
    if data.draw(st.integers(0, 5)) == 0:
        # a letter outside the alphabet: conf names it on both sides
        cells[data.draw(st.sampled_from(sorted(cells)))] = (9,) * spec.stack
    zprime = mapping_configuration(Z, cells, None)
    for h in markers:
        at = (h * spacing,)
        got = _fill_outcome(constructions._collar_fill, sys, zprime, at, u)
        assert got == _fill_outcome(oracle_collar_fill, sys, zprime, at, u)


def test_verify_phi_runs_conf_once_on_the_full_shift():
    # densify full_shift --window 0..2 --level 1 --scale 60: the full shift
    # has one transfer-graph state, so every collar has the same boundary
    sys = build_phi(Z, builtin_spec("full_shift"), 1, FiniteSubset.of(Z, [(0,), (1,), (2,)]))
    calls = []

    def spy(*args):
        calls.append(args)
        return conf(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "conf", spy)
        assert verify_phi(sys, 60)["verdict"]
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name,cells", [("full_shift", [-1, 0]), ("golden_mean", [1, 2]), ("full_shift", [0, 1, 2])]
)
def test_verify_phi_short_bounds_miss_patterns_like_the_oracle(name, cells):
    # a shrunk syndetic bound leaves stretches missing patterns; at bound 1 a
    # stretch of a two- or three-cell window holds no placement at all
    sys = build_phi(Z, builtin_spec(name), 1, FiniteSubset.of(Z, [(c,) for c in cells]))
    for bound in (1, 2, 3, 5, 9):
        short = copy.copy(sys)
        short.syndetic_bound = bound
        got = verify_phi(short, 12, 2, 3)
        assert any(v["kind"] == "stretch-missing" for v in got["evidence"]["violations"])
        assert canonical_json(got) == canonical_json(oracle_verify_phi(short, 12, 2, 3))


@functools.lru_cache(maxsize=None)
def _phi_system(name, cells):
    return build_phi(Z, builtin_spec(name), 1, FiniteSubset.of(Z, [(c,) for c in cells]))


def _hits_or_error(fn, *args):
    try:
        return fn(*args)
    except ConstructionError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("full_shift", (0, 1)), ("golden_mean", (0, 1, 2)), ("full_shift", (0,))]),
    st.integers(-60, 60), st.integers(0, 50), st.data(),
)
def test_marker_hits_match_the_per_cell_scan(case, lo, size, data):
    sys = _phi_system(*case)
    cells = range(lo, lo + size)
    if data.draw(st.booleans()):
        y = canonical_marker_point(sys)
    else:
        # hand-built markers may lie closer than V^5: the collision is
        # reported at the same first cell
        reach = 3 * sys.v_radius + 2
        ones = data.draw(st.lists(st.integers(lo - reach, lo + size + reach), max_size=5))
        y = mapping_configuration(Z, {(h,): 1 for h in ones}, 0)
    got = _hits_or_error(constructions._marker_hits, sys, y, cells)
    want = _hits_or_error(lambda: [oracle_marker_hit(sys, y, (t,)) for t in cells])
    assert got == want


def test_marker_hits_raise_at_the_first_cell_two_markers_cover():
    sys = _phi_system("golden_mean", (0, 1, 2))
    r = sys.v_radius
    assert r > 0
    y = mapping_configuration(Z, {(0,): 1, (5 * r,): 1}, 0)
    cells = range(-20 * r, 20 * r)
    with pytest.raises(ConstructionError, match=re.escape(f"markers collide near {2 * r}:")):
        constructions._marker_hits(sys, y, cells)
    with pytest.raises(ConstructionError, match=re.escape(f"markers collide near {2 * r}:")):
        for t in cells:
            oracle_marker_hit(sys, y, (t,))


@functools.lru_cache(maxsize=None)
def _marker_system(r):
    spec, _ = max_separated_subshift(Z, Z.ball(5 * r))
    return spec, 10 * r + 1, transfer_graph(spec).m


def _periodic_word(period, length, ones):
    return tuple(1 if i % period in ones else 0 for i in range(length))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.data())
def test_periodic_marker_window_matches_the_language(r, data):
    spec, s, m = _marker_system(r)
    period = data.draw(st.sampled_from([p for p in (s - 1, s, s + 1, 2 * m + 2) if p > 0]))
    ones = frozenset(data.draw(st.lists(st.integers(0, period - 1), max_size=3)))
    word = _periodic_word(period, 6 * s + 1, ones)
    assert _periodic_window_admissible(spec, word, period) == oracle_marker_window_ok(spec, word)


@pytest.mark.parametrize("r", range(6))
def test_periodic_marker_window_periods_give_both_verdicts(r):
    spec, s, m = _marker_system(r)
    verdicts = set()
    for period in {p for p in (s - 1, s, s + 1, 2 * m + 2) if p > 0}:
        word = _periodic_word(period, 6 * s + 1, {0})
        got = _periodic_window_admissible(spec, word, period)
        assert got == oracle_marker_window_ok(spec, word)
        verdicts.add(got)
    assert verdicts == {True, False}
    outside = tuple(2 * x for x in _periodic_word(s, 6 * s + 1, {0}))
    assert _periodic_window_admissible(spec, outside, s) is oracle_marker_window_ok(spec, outside)
    with pytest.raises(ValueError, match="letters"):
        _periodic_window_admissible(spec, (1,) * (s + m - 1), s)
    with pytest.raises(ValueError, match=f"not {s}-periodic"):
        _periodic_window_admissible(spec, (0,) + _periodic_word(s, 6 * s + 1, {0})[1:], s)


def oracle_periodic_scan(spec, word):
    """The periodic-window scan before it kept to one period: every start
    of ``word`` against every forbidden pattern."""
    if not set(word) <= set(spec.letters()):
        return False
    for p in spec.forbidden:
        offs = [g[0] for g in p.domain]
        lo = min(offs)
        if any(
            all(word[i + o - lo] == v for o, v in zip(offs, p.values))
            for i in range(len(word) - (max(offs) - lo))
        ):
            return False
    return True


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.dictionaries(st.integers(-3, 3), st.integers(0, 1), min_size=1, max_size=3),
             max_size=4),
    st.integers(1, 8),
    st.data(),
)
def test_periodic_window_scan_of_one_period_matches_every_start(forbidden, period, data):
    spec = _z_spec(forbidden, "random")
    m = max((max(p) - min(p) for p in forbidden), default=0)
    base = data.draw(st.lists(st.integers(0, 1), min_size=period, max_size=period))
    length = period + m + data.draw(st.integers(0, 2 * period))
    word = tuple(base[i % period] for i in range(length))
    assert _periodic_window_admissible(spec, word, period) == oracle_periodic_scan(spec, word)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3), st.integers(1, 8), st.data())
def test_periodic_window_starts_by_letter_match_the_language(alphabet, period, data):
    # patterns may start with any letter, the all-zero one included, and
    # the word may hold a letter outside a two-letter alphabet
    letters = st.integers(0, alphabet - 1)
    forbidden = data.draw(st.lists(
        st.dictionaries(st.integers(-2, 2), letters, min_size=1, max_size=3), max_size=4
    ))
    if data.draw(st.booleans()):
        forbidden.append(dict.fromkeys(range(data.draw(st.integers(1, 3))), 0))
    spec = _z_spec(forbidden, "random", alphabet)
    m = max((max(p) - min(p) for p in forbidden), default=0)
    base = data.draw(st.lists(st.integers(0, 2), min_size=period, max_size=period))
    length = period + m + data.draw(st.integers(0, 2 * period))
    word = tuple(base[i % period] for i in range(length))
    assert _periodic_window_admissible(spec, word, period) == oracle_marker_window_ok(spec, word)


NO_RUNS_OF_3 = _z_spec([{0: 0, 1: 0, 2: 0}, {0: 1, 1: 1, 2: 1}], "no_runs_of_3")


@functools.lru_cache(maxsize=None)
def _runs_gamma_system():
    z2 = parse_group("finite:z2")
    f = FiniteSubset.of(Z, [(0,), (1,)])
    gsys, _ = gamma_densify(Z, z2, NO_RUNS_OF_3, f, 0.5, 40)
    return gsys, (Z, z2, NO_RUNS_OF_3, f, 0.5, 40, 6, 6, 6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-40, 40), max_size=4))
def test_gamma_collar_escapes_match_the_per_stretch_scan(flipped):
    # flipped cells put runs of three into some corpus windows; the
    # certificate must name the first failing stretch of each such window
    gsys, inputs = _runs_gamma_system()
    point = gamma_point(gsys)
    bad = Configuration(
        Z, lambda g: 1 - point.value(g) if g[0] in flipped else point.value(g), "flipped"
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "gamma_point", lambda _: bad)
        env = constructions._gamma_certificate(gsys, 40, inputs)
    got = [v for v in env["evidence"]["violations"] if v["kind"] == "collar-escape"]
    assert got == oracle_collar_escapes(gsys, 40, bad)


def test_gamma_collar_escape_names_the_first_failing_stretch():
    gsys, inputs = _runs_gamma_system()
    point = gamma_point(gsys)
    cells = {t: 0 for t in range(-1, 2)}  # a run of three zeros around 0
    bad = Configuration(Z, lambda g: cells.get(g[0], point.value(g)), "run")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "gamma_point", lambda _: bad)
        env = constructions._gamma_certificate(gsys, 40, inputs)
    got = [v for v in env["evidence"]["violations"] if v["kind"] == "collar-escape"]
    assert got and got == oracle_collar_escapes(gsys, 40, bad)
    assert not env["verdict"]


NO_EQUAL_PAIR = _z_spec([{0: a, 1: a} for a in range(3)], "no_equal_pair", 3)


# Bases closed under the group's letterwise action.  On no_equal_pair with a
# one-cell window the collar fill next to a stamp depends on which group
# translate the stamp carries, so a fill memo blind to the stamp would show.
@pytest.mark.parametrize(
    "group,spec,cells,scale",
    [
        ("z2", builtin_spec("full_shift"), [0], 40),
        ("z3", _z_spec([], "full3", 3), [0], 40),
        ("z2", _z_spec([{0: 0, 1: 0, 2: 0}, {0: 1, 1: 1, 2: 1}], "no_runs_of_3"), [0, 1], 40),
        ("z3", NO_EQUAL_PAIR, [0], 40),
        ("z3", NO_EQUAL_PAIR, [0, 1], 50),
    ],
)
def test_gamma_point_matches_nearest_grid_oracle(group, spec, cells, scale):
    gamma = parse_group(f"finite:{group}")
    f = FiniteSubset.of(Z, [(c,) for c in cells])
    gsys, env = gamma_densify(Z, gamma, spec, f, 0.5, scale)
    assert env["verdict"]
    want = [oracle_gamma_letter(gsys, (t,)) for t in range(-scale, scale + 1)]
    for gelt in range(gamma.order):
        point = gamma_point(gsys, gelt)
        got = [point.value((t,)) for t in range(-scale, scale + 1)]
        assert got == [gamma.mul(gelt, v) for v in want]


def test_densify_at_scale_60_builds_no_marker_graph(monkeypatch):
    monkeypatch.setattr(subshifts, "_TRANSFER_CACHE", {})
    spec = builtin_spec("full_shift")
    sys = build_phi(Z, spec, 1, FiniteSubset.of(Z, [(0,), (1,), (2,)]))
    env = verify_phi(sys, 60, seed=0)
    assert env["verdict"] and env["evidence"]["marker_window_ok"]
    assert list(subshifts._TRANSFER_CACHE) == [spec]


def _multiples_of_seven(g):
    return g[0] % 7 == 0


@pytest.mark.parametrize(
    "member,lo,hi,radius",
    [
        (squares_member, -2000, 2600, 10),
        (squares_member, -50, 400, 0),
        (evens_member, -40, 40, 0),
        (evens_member, -40, 40, 1),
        (_multiples_of_seven, -100, 100, 2),
        (_multiples_of_seven, -100, 100, 3),
    ],
)
def test_avoided_blocks_match_cell_by_cell_scan(member, lo, hi, radius):
    clear = _block_clear_test(member, lo, hi, radius)
    # centres past both ends fall back to asking the predicate
    assert [h for h in range(lo - 30, hi + 31) if clear(h)] == oracle_avoided(
        member, lo - 30, hi + 30, radius
    )
