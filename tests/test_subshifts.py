"""Patterns, presentations, window languages and their brute-force oracles.

The transfer-graph language is checked cell by cell against a direct
scan of all binary words that tests every forbidden-pattern placement,
so the two implementations can only agree by computing the same set.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn.corpus import builtin_spec, load_spec
from symdyn.groups import FiniteSubset, parse_group
from symdyn.irreducibility import is_admissible
from symdyn.subshifts import (
    EXACT,
    BlockMap,
    ImageSpec,
    Pattern,
    SftSpec,
    SubshiftError,
    SubstitutionSpec,
    essential_freeness_check,
    hull_interval,
    is_minimal_at,
    letter_coords,
    local,
    make_letter,
    parse_semantics,
    pattern_set,
    project_letter,
    sorted_patterns,
    transfer_graph,
    window_patterns,
)

Z = parse_group("Z")


def word_ok(spec: SftSpec, word: tuple) -> bool:
    """Direct oracle: no forbidden pattern occurs at any placement."""
    cells = {(i,): v for i, v in enumerate(word)}
    for p in spec.forbidden:
        offs = [(g[0], v) for g, v in p.items()]
        lo = min(o for o, _ in offs)
        hi = max(o for o, _ in offs)
        for t in range(-lo, len(word) - hi):
            if all(cells[(o + t,)] == v for o, v in offs):
                return False
    return True


def brute_language(spec: SftSpec, length: int) -> set:
    """All admissible words of the given length, by margin-extended scan.

    A word is in the window language iff it extends to a biinfinite
    point; at finite type with hull span m it suffices that some
    extension by m cells on each side stays clean (transfer feasibility),
    which the oracle checks by trying all extensions of that margin.
    Only usable for small margins; the gap shift has its own oracle.
    """
    m = max(
        (hull_interval(p.domain)[1] - hull_interval(p.domain)[0])
        for p in spec.forbidden
    ) if spec.forbidden else 0
    letters = spec.letters()
    out = set()
    for w in itertools.product(letters, repeat=length):
        for pad_l in itertools.product(letters, repeat=m):
            if any(
                word_ok(spec, pad_l + w + pad_r)
                for pad_r in itertools.product(letters, repeat=m)
            ):
                out.add(w)
                break
    return out


def gap_word_ok(word: tuple, lo: int, hi: int) -> bool:
    """Run-length oracle for the gap shift: internal zero-runs in
    [lo, hi], boundary zero-runs at most hi (they extend outward)."""
    ones = [i for i, v in enumerate(word) if v == 1]
    if not ones:
        return len(word) <= hi
    if ones[0] > hi or (len(word) - 1 - ones[-1]) > hi:
        return False
    return all(b - a - 1 >= lo and b - a - 1 <= hi for a, b in zip(ones, ones[1:]))


def gap_shift_spec(lo: int, hi: int) -> SftSpec:
    """Runs of zeros between consecutive ones confined to [lo, hi]."""
    forb = [
        Pattern.of(Z, {(0,): 1, (k + 1,): 1} | {(i + 1,): 0 for i in range(k)})
        for k in range(lo)
    ]
    forb.append(Pattern.of(Z, {(i,): 0 for i in range(hi + 1)}))
    return SftSpec("Z", (2,), tuple(forb), f"gap[{lo},{hi}]")


def test_pattern_construction_and_lookup():
    p = Pattern.of(Z, {(2,): 1, (0,): 0, (-1,): 1})
    assert p.domain.elements == ((0,), (-1,), (2,))
    assert p.values == (0, 1, 1)
    assert p.value_at((2,)) == 1
    assert p.get((5,)) is None
    assert p.mapping() == {(0,): 0, (-1,): 1, (2,): 1}


def test_pattern_translate_moves_cells():
    p = Pattern.of(Z, {(0,): 1, (1,): 0})
    # q = p.translate(g) is satisfied by g.z exactly when z satisfies p
    q = p.translate(Z, (-3,))
    assert q.mapping() == {(3,): 1, (4,): 0}


@settings(max_examples=50, deadline=None)
@given(
    cells=st.dictionaries(st.integers(-4, 4), st.integers(0, 1), min_size=1, max_size=5),
    g=st.integers(-4, 4),
    h=st.integers(-4, 4),
)
def test_pattern_translate_composes(cells, g, h):
    p = Pattern.of(Z, {(c,): v for c, v in cells.items()})
    lhs = p.translate(Z, (g,)).translate(Z, (h,))
    rhs = p.translate(Z, Z.mul((h,), (g,)))
    assert lhs == rhs


def test_pattern_json_round_trip():
    for ctx, cells in (
        (Z, {(0,): 1, (-2,): 0}),
        (parse_group("Z^2"), {(0, 1): 1, (1, 0): 0}),
        (parse_group("F2"), {"": 1, "ab": 0}),
    ):
        p = Pattern.of(ctx, cells)
        assert Pattern.from_json(ctx, p.to_json(ctx)) == p


def test_pattern_sort_key_orders_by_domain_then_values():
    pats = sorted_patterns(
        {
            Pattern.of(Z, {(0,): 1}),
            Pattern.of(Z, {(0,): 0}),
            Pattern.of(Z, {(0,): 0, (1,): 0}),
        }
    )
    assert [p.values for p in pats] == [(0,), (1,), (0, 0)]


def test_semantics_parsing():
    assert parse_semantics("exact") is EXACT
    assert parse_semantics("local:3").margin == 3
    with pytest.raises(SubshiftError):
        parse_semantics("fuzzy")
    for text in ("local:x", "local:"):
        with pytest.raises(SubshiftError, match=f"^cannot parse semantics '{text}'$"):
            parse_semantics(text)


def test_spec_json_round_trip():
    spec = builtin_spec("golden_mean")
    again = SftSpec.from_json(Z, spec.to_json(Z))
    assert again == spec
    fib = builtin_spec("fibonacci_substitution")
    again2 = SubstitutionSpec.from_json(Z, fib.to_json(Z))
    assert again2 == fib


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
GROUP_CELLS = {
    "Z": st.integers(-2, 2),
    "Z^2": st.lists(st.integers(-1, 1), min_size=2, max_size=2),
    "F2": st.sampled_from(["", "a", "B", "ab", "bA"]),
    "finite:s3": st.integers(0, 5),
}
LETTERS = st.integers(-1, 3) | st.lists(st.integers(-1, 2), min_size=1, max_size=3)


def _slots(obj):
    """Every (container, key) place inside a decoded JSON value."""
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for k in list(keys):
        yield obj, k
        if isinstance(obj[k], (dict, list)):
            yield from _slots(obj[k])


@st.composite
def near_specs(draw):
    """A well-formed spec on a real group, then up to three of its places
    dropped or replaced by random JSON, so every decoder is reached."""
    group = draw(st.sampled_from(sorted(GROUP_CELLS)))
    sizes = st.integers(1, 3)
    spec = {
        "group": group,
        "alphabet": draw(sizes | st.lists(sizes, min_size=1, max_size=3)),
    }
    if draw(st.booleans()):
        spec["stack"] = draw(st.integers(1, 3))
    if group == "Z" and draw(st.booleans()):
        k = draw(sizes)
        spec["alphabet"] = k
        spec["substitution"] = {
            str(i): draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3))
            for i in range(k)
        }
    else:
        spec["forbidden"] = [
            {
                "domain": draw(
                    st.lists(GROUP_CELLS[group], min_size=n, max_size=n)
                ),
                "values": draw(st.lists(LETTERS, min_size=n, max_size=n)),
            }
            for n in draw(st.lists(st.integers(1, 3), max_size=3))
        ]
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(list(_slots(spec))))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return spec


@settings(max_examples=400, deadline=None)
@given(near_specs() | JSON_VALUES)
def test_load_spec_parses_or_rejects_any_json(obj):
    # every malformed spec is a usage error (a ValueError), never a crash
    try:
        ctx, spec = load_spec(json.dumps(obj))
    except ValueError:
        return
    assert type(spec).from_json(ctx, spec.to_json(ctx)) == spec
    for p in getattr(spec, "forbidden", ()):
        assert set(p.values) <= set(spec.letters())


def test_load_spec_rejects_a_name_too_long_for_a_file():
    with pytest.raises(SubshiftError, match="neither a builtin system nor a spec"):
        load_spec("x" * 5000)


def test_letter_coords_round_trip():
    assert letter_coords(1, 1) == (1,)
    assert letter_coords((1, 0), 2) == (1, 0)
    assert make_letter((1,)) == 1
    assert make_letter((1, 0)) == (1, 0)
    assert project_letter((1, 0, 1), 2, 3) == (1, 0)
    assert project_letter((1, 0), 1, 2) == 1


@pytest.mark.parametrize("name", ["full_shift", "golden_mean", "period2"])
@pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
def test_language_matches_brute_force(name, length):
    spec = builtin_spec(name)
    tg = transfer_graph(spec)
    assert set(tg.language(length)) == brute_language(spec, length)


def test_golden_counts_are_fibonacci():
    spec = builtin_spec("golden_mean")
    tg = transfer_graph(spec)
    fib = [1, 2]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    for length in range(1, 13):
        assert sum(1 for _ in tg.language(length)) == fib[length]


@pytest.mark.parametrize("length", range(1, 11))
def test_gap_shift_language_matches_run_length_oracle(length):
    spec = gap_shift_spec(3, 5)
    tg = transfer_graph(spec)
    expect = {
        w
        for w in itertools.product((0, 1), repeat=length)
        if gap_word_ok(w, 3, 5)
    }
    assert set(tg.language(length)) == expect


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=14))
def test_gap_shift_contains_matches_word_oracle(bits):
    spec = gap_shift_spec(3, 5)
    tg = transfer_graph(spec)
    w = tuple(bits)
    assert tg.contains(w) == gap_word_ok(w, 3, 5)


def test_window_patterns_on_scattered_domain():
    spec = builtin_spec("period2")
    dom = FiniteSubset.of(Z, [(0,), (3,)])
    pats = {p.values for p in window_patterns(Z, spec, dom, EXACT)}
    # cells at odd distance carry opposite letters
    assert pats == {(0, 1), (1, 0)}


def test_pattern_set_local_semantics_on_z2():
    z2 = parse_group("Z^2")
    no_adjacent = SftSpec(
        "Z^2",
        (2,),
        (
            Pattern.of(z2, {(0, 0): 1, (1, 0): 1}),
            Pattern.of(z2, {(0, 0): 1, (0, 1): 1}),
        ),
        "hardsquare",
    )
    dom = FiniteSubset.of(z2, [(0, 0), (1, 0)])
    pats = pattern_set(z2, no_adjacent, dom, local(1))
    assert {p.values for p in pats} == {(0, 0), (0, 1), (1, 0)}


def test_is_admissible_matches_language():
    spec = builtin_spec("golden_mean")
    tg = transfer_graph(spec)
    for w in itertools.product((0, 1), repeat=6):
        p = Pattern.of(Z, {(i,): v for i, v in enumerate(w)})
        assert is_admissible(Z, spec, p, EXACT) == tg.contains(w)


def test_is_admissible_scattered_feasibility():
    spec = builtin_spec("period2")
    ok = Pattern.of(Z, {(0,): 0, (3,): 1})
    bad = Pattern.of(Z, {(0,): 0, (3,): 0})
    assert is_admissible(Z, spec, ok, EXACT)
    assert not is_admissible(Z, spec, bad, EXACT)


@pytest.mark.parametrize("sem", [EXACT, local(0), local(1)])
def test_is_admissible_rejects_letters_outside_the_alphabet(sem):
    spec = builtin_spec("golden_mean")
    assert not is_admissible(Z, spec, Pattern.of(Z, {(0,): 2}), sem)
    assert not is_admissible(Z, spec, Pattern.of(Z, {(0,): 0, (2,): 2}), sem)
    assert is_admissible(Z, spec, Pattern.of(Z, {(0,): 1}), sem)


def test_is_admissible_rejects_letters_outside_the_alphabet_on_z2():
    z2 = parse_group("Z^2")
    spec = SftSpec("Z^2", (2,), (Pattern.of(z2, {(0, 0): 1, (1, 0): 1}),), "no_horizontal_11")
    for sem in (local(0), local(1)):
        assert not is_admissible(z2, spec, Pattern.of(z2, {(0, 0): 5}), sem)
        assert is_admissible(z2, spec, Pattern.of(z2, {(0, 0): 1}), sem)


def test_block_map_push_forward():
    spec = builtin_spec("period2")
    support = FiniteSubset.of(Z, [(0,), (1,)])
    bmap = BlockMap(support, (2,), "or2", lambda w: w[0] | w[1])
    image = ImageSpec(spec, bmap, "p2or")
    dom = FiniteSubset.of(Z, [(0,), (1,), (2,)])
    pats = pattern_set(Z, image, dom, EXACT)
    # adjacent cells of the alternating system always OR to 1
    assert {p.values for p in pats} == {(1, 1, 1)}


def test_substitution_factor_complexity_is_sturmian():
    fib = builtin_spec("fibonacci_substitution")
    for length in range(1, 12):
        assert len(fib.factors(length)) == length + 1


def test_substitution_factors_close_under_subword():
    fib = builtin_spec("fibonacci_substitution")
    longer = fib.factors(6)
    shorter = set(fib.factors(5))
    assert {w[:5] for w in longer} | {w[1:] for w in longer} <= shorter


def _prefix_factors(spec, length, prefix_len):
    """Factors read off a long prefix of the fixed point (the old scan)."""
    word = (0,)
    while len(word) < prefix_len:
        word = tuple(x for a in word for x in spec.rules[a])
    return sorted({word[i : i + length] for i in range(prefix_len - length + 1)})


@pytest.mark.parametrize(
    "rules",
    [
        ((0, 1), (0,)),  # fibonacci
        ((0, 1), (1, 0)),  # Thue-Morse
        ((0, 1), (2,), (0,)),  # tribonacci
        ((0, 2, 1), (1, 1, 0), (2, 0)),
        ((0, 0),),
    ],
)
def test_substitution_factors_match_a_long_prefix_scan(rules):
    spec = SubstitutionSpec("Z", (len(rules),), rules)
    for length in range(0, 10):
        assert spec.factors(length) == _prefix_factors(spec, length, 20000)


@pytest.mark.parametrize(
    "rules",
    [
        tuple((i, i + 1) if i < 9 else (9,) for i in range(10)),  # chain10
        ((0, 1), (1,)),  # 1 never produces 0
        ((0, 0), (1, 1)),  # 1 never occurs
        ((0, 1), (0, 3)),  # letter 3 outside the alphabet
    ],
)
def test_non_primitive_substitutions_are_rejected(rules):
    with pytest.raises(SubshiftError):
        SubstitutionSpec("Z", (len(rules),), rules)


def test_minimality_check_positive_and_negative():
    p2 = builtin_spec("period2")
    probe = FiniteSubset.of(Z, [(0,)])
    window = Z.ball(4)
    assert is_minimal_at(Z, p2, 1, probe, window, EXACT).holds
    golden = builtin_spec("golden_mean")
    res = is_minimal_at(Z, golden, 1, probe, window, EXACT)
    assert not res.holds
    assert res.missing.values == (1,)  # the all-zero window misses [1]


def test_essential_freeness_detects_periodicity():
    p2 = builtin_spec("period2")
    probes = [Pattern.of(Z, {(0,): a}) for a in (0, 1)]
    rep = essential_freeness_check(Z, p2, (2,), probes, EXACT, 4)
    assert not rep.holds  # every period2 point is 2-periodic
    rep1 = essential_freeness_check(Z, p2, (1,), probes, EXACT, 4)
    assert rep1.holds
    for w in rep1.witnesses:
        # each witness window really changes value under the translation
        g = w.site
        assert w.window.value_at(g) != w.window.value_at(Z.mul(g, (1,)))
