"""Separated covering witnesses and joint realization along one orbit.

A covering witness for a separation set D and a cylinder pattern U is a
finite D-separated set S such that *every* admissible point matches U at
some position of S; at desk scale the quantifier over points becomes an
exhaustive scan over admissible windows on the cells S needs.  Witnesses
feed two applications: realizing a prescribed pattern on a free point
while simultaneously steering a second coordinate into a target cylinder,
and stamping one system's whole window-pattern set against another's
along a single pair of orbits.

Search and verification stay separate: `verify_scp_witness` re-checks a
claimed witness from scratch, and every envelope is rebuilt from raw
inputs on verification.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .certificates import register_claim
from .configurations import elements_in_order, free_dense_point
from .constructions import ConstructionError, least_periodic_point
from .groups import FiniteSubset, GroupContext, is_separated
from .irreducibility import conf, irreducibility_witness_search, is_admissible
from .subshifts import (
    EXACT,
    Pattern,
    Semantics,
    SftSpec,
    SpecLike,
    SubshiftError,
    SubstitutionSpec,
    hull_interval,
    is_minimal_at,
    pattern_set,
    sorted_patterns,
    window_patterns,
)


class ScpWitness(NamedTuple):
    """A D-separated covering set together with its defining data."""

    d: FiniteSubset
    u: Pattern
    s: FiniteSubset

    def to_json(self, ctx: GroupContext) -> dict:
        return {
            "d": self.d.to_json(ctx),
            "u": self.u.to_json(ctx),
            "s": self.s.to_json(ctx),
        }


def coverage_gap(
    ctx: GroupContext,
    spec: SpecLike,
    u: Pattern,
    positions,
    sem: Semantics = EXACT,
) -> Optional[Pattern]:
    """First admissible window matching ``u`` at none of the positions."""
    cells = {ctx.mul(h, s) for s in positions for h in u.domain}
    dom = FiniteSubset.of(ctx, cells)
    for p in window_patterns(ctx, spec, dom, sem):
        if not any(
            all(p.value_at(ctx.mul(h, s)) == v for h, v in u.items())
            for s in positions
        ):
            return p
    return None


def _search_cover(
    ctx: GroupContext,
    spec: SpecLike,
    d: FiniteSubset,
    u: Pattern,
    scale: int,
    max_size: int,
    sem: Semantics,
    gate_radius: Optional[int],
) -> tuple[Optional[ScpWitness], int, Optional[Pattern], int]:
    """Shared search core: (witness, size, escape window, candidate count).

    The size is checked before the minimality gate (none if ``gate_radius``
    is None), so a bad size is a usage error on every system."""
    if max_size < 0:
        raise ValueError(f"max size must be >= 0, got {max_size}")
    if gate_radius is not None:
        _minimality_gate(ctx, spec, u, gate_radius, sem)
    candidates = list(ctx.ball(scale))
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(candidates, k):
            if not is_separated(ctx, d, combo):
                continue
            if coverage_gap(ctx, spec, u, combo, sem) is None:
                return ScpWitness(d, u, FiniteSubset.of(ctx, combo)), k, None, len(candidates)
    return None, 0, coverage_gap(ctx, spec, u, candidates, sem), len(candidates)


def _minimality_gate(
    ctx: GroupContext, spec: SpecLike, u: Pattern, radius: int, sem: Semantics
) -> None:
    gate = is_minimal_at(ctx, spec, spec.stack, u.domain, ctx.ball(radius), sem)
    if not gate.holds:
        raise ConstructionError(
            "covering witnesses need window-minimality: a window at "
            f"radius {radius} misses a cylinder pattern"
        )


def verify_scp_witness(
    ctx: GroupContext,
    spec: SpecLike,
    d: FiniteSubset,
    u: Pattern,
    s,
    sem: Semantics = EXACT,
) -> tuple[bool, Optional[Pattern]]:
    """Independent recheck: separation plus exhaustive coverage."""
    if not is_separated(ctx, d, s):
        return False, None
    gap = coverage_gap(ctx, spec, u, list(s), sem)
    return gap is None, gap


def scp_witness(
    ctx: GroupContext,
    spec: SpecLike,
    d: FiniteSubset,
    u: Pattern,
    scale: int = 8,
    max_size: int = 4,
    sem: Semantics = EXACT,
    minimality_scale: int = 4,
    require_minimal: bool = True,
) -> tuple[Optional[ScpWitness], dict]:
    """Least D-separated covering set, by size then canonical order.

    Candidates are drawn from ``ball(scale)``; for each cardinality the
    combinations are scanned in canonical order and the first D-separated
    set whose coverage scan finds no escaping window wins, making the
    result deterministic and minimal.  The minimality gate rejects
    systems with a window that never visits some pattern (for those no
    finite covering set can exist for the missed cylinder).
    """
    if not isinstance(spec, (SftSpec, SubstitutionSpec)):
        raise SubshiftError(
            "block-map images go through lift_scp_witness, which re-checks "
            "the witness on the source"
        )
    if len(d) == 0:
        raise ValueError("the separation set must be non-empty")
    if len(u.domain) == 0:
        raise ValueError("the target cylinder must be non-empty")
    witness, size, uncovered, candidate_count = _search_cover(
        ctx, spec, d, u, scale, max_size, sem,
        minimality_scale if require_minimal else None,
    )
    evidence = {
        "witness": None if witness is None else witness.s.to_json(ctx),
        "size": size,
        "candidate_count": candidate_count,
        "uncovered": None if uncovered is None else uncovered.to_json(ctx),
    }
    env = _COVER_CLAIM.envelope(
        (ctx, spec, d, u, scale, max_size, sem, minimality_scale, require_minimal),
        scale,
        witness is not None,
        evidence,
    )
    return witness, env


_COVER_CLAIM = register_claim(
    "scp-cover", "scp",
    (("group", "group"), ("spec", "spec"), ("d", "subset"), ("u", "pattern"),
     ("scale", "int"), ("max_size", "int"), ("semantics", "semantics"),
     ("minimality_scale", "int"), ("require_minimal", "bool")),
    lambda *inputs: scp_witness(*inputs)[1],
)


def lift_scp_witness(
    ctx: GroupContext,
    factor,
    d: FiniteSubset,
    u: Pattern,
    scale: int = 8,
    max_size: int = 4,
    sem: Semantics = EXACT,
    minimality_scale: int = 4,
) -> tuple[Optional[ScpWitness], dict]:
    """Covering witness for a block-map image, re-checked on the source.

    The witness is found on the image language; the lift claim is then
    re-verified without trusting the image enumeration, by scanning every
    admissible *source* window on the pulled-back cells and applying the
    block map at each witness position.
    """
    witness, _size, _gap, _count = _search_cover(
        ctx, factor, d, u, scale, max_size, sem, minimality_scale
    )
    source_gap = None
    if witness is not None:
        bmap = factor.bmap
        src_cells = {
            ctx.mul(x, ctx.mul(h, s))
            for s in witness.s
            for h in u.domain
            for x in bmap.support
        }
        dom = FiniteSubset.of(ctx, src_cells)
        for beta in window_patterns(ctx, factor.source, dom, sem):
            if not any(
                all(
                    bmap.apply_window(
                        tuple(
                            beta.value_at(ctx.mul(x, ctx.mul(h, s)))
                            for x in bmap.support
                        )
                    )
                    == v
                    for h, v in u.items()
                )
                for s in witness.s
            ):
                source_gap = beta
                break
    verdict = witness is not None and source_gap is None
    evidence = {
        "witness": None if witness is None else witness.s.to_json(ctx),
        "source_gap": None if source_gap is None else source_gap.to_json(ctx),
    }
    env = _LIFT_CLAIM.envelope(
        (ctx, factor, d, u, scale, max_size, sem, minimality_scale),
        scale,
        verdict,
        evidence,
    )
    return (witness if verdict else None), env


_LIFT_CLAIM = register_claim(
    "scp-lift", "scp",
    (("group", "group"), ("factor", "factor"), ("d", "subset"), ("u", "pattern"),
     ("scale", "int"), ("max_size", "int"), ("semantics", "semantics"),
     ("minimality_scale", "int")),
    lambda *inputs: lift_scp_witness(*inputs)[1],
)


# ---------------------------------------------------------------------------
# joint realization on a free point
# ---------------------------------------------------------------------------

class JointRealization(NamedTuple):
    """Position where the free point shows ``alpha`` and the base point
    lands in the target cylinder."""

    g: object
    h: object
    s: object
    witness: ScpWitness
    beta: Pattern


def joint_realize(
    ctx: GroupContext,
    spec: SpecLike,
    alpha: Pattern,
    u: Pattern,
    depth: int = 4,
    scale: int = 8,
    max_size: int = 4,
    sem: Semantics = EXACT,
) -> tuple[JointRealization, dict]:
    """Find one position realizing ``alpha`` on a free point while the
    system's least periodic point enters the cylinder ``u``.

    A covering witness S for (dom(alpha), u) turns the two requirements
    into one: the stamp pattern repeating ``alpha`` over every position
    of S occurs somewhere on the staged free point, and coverage hands
    back a witness position whose translate puts the periodic point into
    ``u``.  Both conditions are re-checked pointwise at the end.
    """
    if not isinstance(spec, SftSpec):
        raise SubshiftError("joint realization needs a finite-type presentation")
    d = alpha.domain
    witness, _ = scp_witness(ctx, spec, d, u, scale, max_size, sem)
    if witness is None:
        raise ConstructionError(
            "no covering witness at this scale; joint realization needs one"
        )
    beta_cells: dict = {}
    for s in witness.s:
        for c, v in alpha.items():
            cell = ctx.mul(c, s)
            if beta_cells.get(cell, v) != v:
                raise ConstructionError(
                    "witness positions collide with conflicting stamp values"
                )
            beta_cells[cell] = v
    beta = Pattern.of(ctx, beta_cells)
    fdp = free_dense_point(ctx, depth)
    z0 = fdp.config
    x0, _period = least_periodic_point(ctx, spec)
    h_found = None
    cap = fdp.support_radius + max(ctx.word_length(c) for c in beta.domain) + 2
    for h in elements_in_order(ctx):
        if ctx.word_length(h) > cap:
            break
        if all(z0.value(ctx.mul(c, h)) == v for c, v in beta.items()):
            h_found = h
            break
    if h_found is None:
        raise ConstructionError(
            f"the staged free point never shows the stamp within radius {cap}"
        )
    s_found = None
    for s in witness.s:
        g = ctx.mul(s, h_found)
        if all(x0.value(ctx.mul(c, g)) == v for c, v in u.items()):
            s_found = s
            break
    if s_found is None:
        raise ConstructionError(
            "coverage did not hand back a cylinder position (witness broken)"
        )
    g = ctx.mul(s_found, h_found)
    cond_point = all(
        z0.value(ctx.mul(c, g)) == v for c, v in alpha.items()
    )
    cond_cylinder = all(
        x0.value(ctx.mul(c, g)) == v for c, v in u.items()
    )
    evidence = {
        "witness": witness.s.to_json(ctx),
        "stamp": beta.to_json(ctx),
        "h": ctx.element_to_json(h_found),
        "s": ctx.element_to_json(s_found),
        "g": ctx.element_to_json(g),
        "pattern_condition": cond_point,
        "cylinder_condition": cond_cylinder,
    }
    env = _JOINT_CLAIM.envelope(
        (ctx, spec, alpha, u, depth, scale, max_size, sem),
        scale,
        cond_point and cond_cylinder,
        evidence,
    )
    return JointRealization(g, h_found, s_found, witness, beta), env


_JOINT_CLAIM = register_claim(
    "joint-realization", "scp",
    (("group", "group"), ("spec", "sft"), ("alpha", "pattern"), ("u", "pattern"),
     ("depth", "int"), ("scale", "int"), ("max_size", "int"),
     ("semantics", "semantics")),
    lambda *inputs: joint_realize(*inputs)[1],
)


# ---------------------------------------------------------------------------
# joint window realization across two systems
# ---------------------------------------------------------------------------

def disjointness_window_check(
    ctx: GroupContext,
    spec_x: SftSpec,
    spec_y: SftSpec,
    f: FiniteSubset,
    scale: int = 80,
    guard_radii: tuple = (0, 1, 2),
    guard_scale: int = 8,
    sem: Semantics = EXACT,
) -> dict:
    """Realize every joint window-pattern pair along one pair of orbits.

    The first system contributes its least periodic point; the second is
    required to pass the gluing-witness guard, which licenses stamping
    each of its window patterns at prescribed positions via iterated
    gluing.  The certificate asserts that every pair (p, q) of admissible
    window patterns occurs at a common position of the two points.
    """
    if not isinstance(spec_x, SftSpec) or not isinstance(spec_y, SftSpec):
        raise SubshiftError("the joint window check needs finite-type inputs")
    search = irreducibility_witness_search(
        ctx, spec_y, spec_y.stack, guard_radii, guard_scale, sem
    )
    if not search.found:
        raise ConstructionError(
            "the second system admits no gluing witness up to radius "
            f"{max(guard_radii)}; its patterns cannot be stamped freely"
        )
    ps_x = sorted_patterns(pattern_set(ctx, spec_x, f, sem))
    ps_y = sorted_patterns(pattern_set(ctx, spec_y, f, sem))
    x0, period = least_periodic_point(ctx, spec_x)
    flo, fhi = hull_interval(f)
    span = fhi - flo + 1
    gap = max(search.final.min_gap or 1, 1)
    stride = span + gap
    pairs = list(itertools.product(ps_x, ps_y))
    positions = []
    pos = 0
    for p, _q in pairs:
        t = None
        for cand in range(pos, pos + 2 * period + span + 1):
            if all(x0.value((x[0] + cand,)) == v for x, v in p.items()):
                t = cand
                break
        if t is None:
            raise ConstructionError(
                "the periodic base point never shows a window pattern; "
                "the first system must be window-minimal"
            )
        positions.append(t)
        pos = t + stride
    if positions and positions[-1] + fhi > scale:
        raise ConstructionError(
            f"stamping runs past the scan scale {scale}; raise it"
        )
    acc: Optional[Pattern] = None
    for (dx, (_p, q)) in enumerate(pairs):
        stamped = q.translate(ctx, ctx.inv((positions[dx],)))
        if acc is None:
            acc = stamped
        else:
            joined = FiniteSubset.of(
                ctx,
                [(n,) for n in range(positions[0] + flo, positions[dx] + fhi + 1)],
            )
            acc = conf(ctx, spec_y, spec_y.stack, joined, acc, stamped, sem)
    assert acc is not None
    admissible = is_admissible(ctx, spec_y, acc, sem)
    realized = 0
    failures = []
    for (p, q), t in zip(pairs, positions):
        okx = all(x0.value((x[0] + t,)) == v for x, v in p.items())
        oky = all(acc.value_at((x[0] + t,)) == v for x, v in q.items())
        if okx and oky:
            realized += 1
        else:
            failures.append(
                {"at": t, "x": p.to_json(ctx), "y": q.to_json(ctx)}
            )
    verdict = admissible and realized == len(pairs)
    evidence = {
        "pairs": len(pairs),
        "realized": realized,
        "positions": positions,
        "witness_radius": search.radius,
        "stamp_gap": gap,
        "admissible": admissible,
        "failures": failures,
    }
    return _DISJOINT_CLAIM.envelope(
        (ctx, spec_x, spec_y, f, scale, guard_radii, guard_scale, sem),
        scale,
        verdict,
        evidence,
    )


_DISJOINT_CLAIM = register_claim(
    "disjoint-window", "scp",
    (("group", "group"), ("spec_x", "sft"), ("spec_y", "sft"), ("window", "subset"),
     ("scale", "int"), ("guard_radii", "ints"), ("guard_scale", "int"),
     ("semantics", "semantics")),
    lambda *inputs: disjointness_window_check(*inputs),
)
