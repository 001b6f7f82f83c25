"""Built-in desk-scale systems used across the test and CLI surfaces."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .groups import FiniteSubset, GroupContext, parse_group
from .subshifts import (
    BlockMap,
    ImageSpec,
    Pattern,
    SftSpec,
    SubstitutionSpec,
    SpecLike,
    SubshiftError,
    _json_get,
)


def _z():
    return parse_group("Z")


def full_shift_spec(alphabet: int = 2, name: str = "full_shift") -> SftSpec:
    return SftSpec("Z", (alphabet,), (), name)


def golden_mean_spec() -> SftSpec:
    ctx = _z()
    no_11 = Pattern.of(ctx, {(0,): 1, (1,): 1})
    return SftSpec("Z", (2,), (no_11,), "golden_mean")


def period2_spec() -> SftSpec:
    ctx = _z()
    no_00 = Pattern.of(ctx, {(0,): 0, (1,): 0})
    no_11 = Pattern.of(ctx, {(0,): 1, (1,): 1})
    return SftSpec("Z", (2,), (no_00, no_11), "period2")


def fibonacci_substitution_spec() -> SubstitutionSpec:
    return SubstitutionSpec(
        "Z", (2,), ((0, 1), (0,)), "fibonacci_substitution"
    )


BUILTIN_NAMES = (
    "full_shift",
    "golden_mean",
    "fibonacci_substitution",
    "period2",
)


def builtin_spec(name: str) -> SpecLike:
    if name == "full_shift":
        return full_shift_spec()
    if name == "golden_mean":
        return golden_mean_spec()
    if name == "period2":
        return period2_spec()
    if name == "fibonacci_substitution":
        return fibonacci_substitution_spec()
    raise SubshiftError(f"unknown builtin system {name!r}; have {BUILTIN_NAMES}")


BUILTIN_FACTOR_NAMES = (
    "golden_or",
    "period2_or",
)


def builtin_factor(name: str) -> ImageSpec:
    """Named sliding-block images of the builtin systems."""
    ctx = _z()
    support = FiniteSubset.of(ctx, [(0,), (1,)])
    if name == "golden_or":
        bmap = BlockMap(support, (2,), "or2", lambda w: w[0] | w[1])
        return ImageSpec(golden_mean_spec(), bmap, "golden_or")
    if name == "period2_or":
        bmap = BlockMap(support, (2,), "or2", lambda w: w[0] | w[1])
        return ImageSpec(period2_spec(), bmap, "period2_or")
    raise SubshiftError(
        f"unknown builtin factor {name!r}; have {BUILTIN_FACTOR_NAMES}"
    )


def load_spec(source: str) -> tuple[GroupContext, SpecLike]:
    """Resolve a builtin name, a JSON file path, or inline JSON."""
    if source in BUILTIN_NAMES:
        spec = builtin_spec(source)
        return parse_group(spec.group), spec
    if source.strip().startswith("{"):
        obj = json.loads(source)
    else:
        # os.path.isfile, unlike Path.exists, is False for names too long
        if not os.path.isfile(source):
            raise SubshiftError(
                f"{source!r} is neither a builtin system nor a spec file"
            )
        obj = json.loads(Path(source).read_text())
    ctx = parse_group(_json_get(obj, "group", str))
    if "substitution" in obj:
        return ctx, SubstitutionSpec.from_json(ctx, obj)
    return ctx, SftSpec.from_json(ctx, obj)
