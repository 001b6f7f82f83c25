"""Rule-backed total configurations and canonical point constructions.

A :class:`Configuration` wraps a total evaluation rule ``g -> letter``
with a memo cache, so points built by staged or periodic constructions
can be shifted and sampled on any finite window without materializing
more than what was asked for.  Caches are only ever filled with the
rule's own values, so concurrent readers cannot disagree.

Every periodic point, such as the least periodic point of a finite-type
system, the marker point or the point through a cylinder, is a table over
a finite quotient of the group pulled back by :func:`periodic_configuration`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple

from .groups import (
    FiniteSubset,
    FiniteGroupContext,
    GroupContext,
    LatticeContext,
    _spheres,
    maximal_separated,
)
from .subshifts import Pattern


class Configuration:
    """Total map from the group to letters, evaluated lazily."""

    def __init__(self, ctx: GroupContext, rule: Callable, label: str = "") -> None:
        self.ctx = ctx
        self.rule = rule
        self.label = label
        self._cache: dict = {}

    def value(self, g):
        if g not in self._cache:
            self._cache[g] = self.rule(g)
        return self._cache[g]

    def window(self, f: FiniteSubset) -> Pattern:
        return Pattern.of(self.ctx, {g: self.value(g) for g in f})

    def shift_by(self, g) -> "Configuration":
        """The translate ``g . z`` with ``(g . z)(h) = z(h g)``."""
        ctx = self.ctx
        return Configuration(
            ctx, lambda h: self.value(ctx.mul(h, g)), f"{self.label}<<{g}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Configuration {self.label or hex(id(self))}>"


def mapping_configuration(
    ctx: GroupContext, mapping: dict, default
) -> Configuration:
    data = dict(mapping)
    return Configuration(
        ctx, lambda g: data.get(g, default), f"explicit[{len(data)} cells]"
    )


def indicator_configuration(
    ctx: GroupContext, member: Callable, label: str = "indicator"
) -> Configuration:
    return Configuration(ctx, lambda g: 1 if member(g) else 0, label)


def periodic_configuration(
    ctx: GroupContext, table: dict, periods: tuple = (), default=None
) -> Configuration:
    """The point ``g -> table.get(pi(g), default)`` pulled back from a
    finite quotient of the group.

    On a lattice ``pi`` reduces each coordinate modulo ``periods``; on a
    finite group it is the identity and ``periods`` stays empty.  Other
    groups have no finite quotient at desk scale and are rejected.
    """
    data = dict(table)
    if isinstance(ctx, LatticeContext):
        if len(periods) != ctx.rank:
            raise ValueError(f"periods {periods} do not fit {ctx.describe()}")

        def rule(g):
            return data.get(tuple(x % p for x, p in zip(g, periods)), default)

    elif isinstance(ctx, FiniteGroupContext):

        def rule(g):
            return data.get(g, default)

    else:
        raise ValueError(
            "minimal_point_in_cylinder needs a lattice or finite group context"
        )
    return Configuration(ctx, rule, f"periodic{periods}")


def elements_in_order(ctx: GroupContext) -> Iterator:
    """All group elements in deterministic order, sphere by sphere, from
    the walk that builds every ball.

    Raises ``BallCapExceeded`` before yielding any of the first sphere
    that takes the running count past ``ball_cap()``; finite groups stop
    at their first empty sphere.
    """
    for sphere in _spheres(ctx):
        yield from sphere


# ---------------------------------------------------------------------------
# almost periodic point through a prescribed cylinder
# ---------------------------------------------------------------------------

def minimal_point_in_cylinder(
    ctx: GroupContext, alpha: Pattern, default_letter
) -> Configuration:
    """Periodic point whose translates visit ``alpha`` along a maximal
    separated backbone.

    The backbone ``C`` is maximal ``dom(alpha)``-separated, so the copies
    of ``alpha`` stamped on ``dom(alpha) * c`` never collide and recur
    syndetically.  On lattices ``C`` is the sublattice with periods one
    more than the per-coordinate diameters of ``dom(alpha)``, so reducing
    modulo the periods is injective on ``dom(alpha)``; finite groups take
    the greedy maximal separated subset.  Free groups have no canonical
    periodic backbone at desk scale and are rejected.
    """
    f = alpha.domain
    if len(f) == 0:
        raise ValueError("cylinder pattern must be non-empty")
    periods: tuple = ()
    table: dict = {}
    if isinstance(ctx, LatticeContext):
        periods = tuple(max(c) - min(c) + 1 for c in zip(*f.elements))
        table = {
            tuple(x % p for x, p in zip(h, periods)): v for h, v in alpha.items()
        }
    elif isinstance(ctx, FiniteGroupContext):
        backbone = maximal_separated(ctx, f, ctx.ball(1))
        table = {ctx.mul(h, c): v for c in backbone for h, v in alpha.items()}
    return periodic_configuration(ctx, table, periods, default_letter)


# ---------------------------------------------------------------------------
# staged free point with dense orbit in the full binary shift
# ---------------------------------------------------------------------------

class Stage(NamedTuple):
    window: FiniteSubset
    placements: tuple  # ((values tuple, site g), ...) in enumeration order
    probe_site: object  # h_i with z(h_i) = 0
    free_target: object  # g_i with z(h_i g_i) = 1


class FreeDensePoint(NamedTuple):
    config: Configuration
    stages: tuple
    support_radius: int


def free_dense_point(ctx: GroupContext, depth: int) -> FreeDensePoint:
    """Binary point realizing every pattern on ``ball(i-1)`` for each
    stage ``i <= depth`` and separating the first ``depth`` non-identity
    translations.

    Stage ``i`` stamps one disjoint block per pattern on ``ball(i-1)``
    (all ``2^|ball(i-1)|`` of them, placed greedily in deterministic
    order) and then reserves a fresh pair ``h_i, h_i g_i`` with values
    0, 1, so the ``g_i``-translate provably moves the point.  The block
    search never steps back: used cells only grow and the balls nest, so
    a site rejected for one block, or taken by one, stays rejected for
    every later block, of this stage or the next.  Every ball holds the
    identity, so a used site is rejected before any product, and a free
    site's cells are multiplied out only until the first used one.  The
    probe ``h_i`` is the first walked element still unused whose
    ``h_i g_i`` is unused too; only when none is left does the walk grow.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    assigned: dict = {}
    used: set = set()
    targets = list(itertools.islice(elements_in_order(ctx), 1, depth + 1))
    order = elements_in_order(ctx)
    elems: list = []

    def fresh_site(cells_of: Callable, k: int) -> int:
        """Index of the first element from the ``k``-th on that is unused,
        as are its other cells ``cells_of``.  ``used`` only grows, so a
        caller may resume from the last index returned for the same
        ``cells_of``, or for one whose cells the new ``cells_of`` covers."""
        while True:
            if k == len(elems):
                g = next(order, None)
                if g is None:
                    raise ValueError(
                        f"group {ctx.describe()} has no free site left for a "
                        f"free dense point of depth {depth}"
                    )
                elems.append(g)
            if elems[k] not in used and all(c not in used for c in cells_of(elems[k])):
                return k
            k += 1

    stages = []
    cursor = 0
    for i in range(1, depth + 1):
        window = ctx.ball(i - 1)
        others = window.elements[1:]  # the identity comes first
        placements = []
        for values in itertools.product((0, 1), repeat=len(window)):
            cursor = fresh_site(lambda g: (ctx.mul(x, g) for x in others), cursor)
            site = elems[cursor]
            for x, v in zip(window.elements, values):
                cell = ctx.mul(x, site)
                assigned[cell] = v
                used.add(cell)
            placements.append((values, site))
        gi = targets[i - 1]
        probe = elems[fresh_site(lambda h: (ctx.mul(h, gi),), 0)]
        moved = ctx.mul(probe, gi)
        assigned[probe] = 0
        assigned[moved] = 1
        used.update((probe, moved))
        stages.append(Stage(window, tuple(placements), probe, gi))

    radius = max((ctx.word_length(c) for c in used), default=0)
    cfg = mapping_configuration(ctx, assigned, 0)
    cfg.label = f"free-dense-point[depth={depth}]"
    return FreeDensePoint(cfg, tuple(stages), radius)
