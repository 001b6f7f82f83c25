"""Command-line front end: one subcommand per construction or check.

Every headline subcommand prints a one-line verdict, optionally writes a
certificate envelope (``--emit``) and a run manifest (``--manifest``),
and exits 0 when the claim holds, 1 when it fails or a construction is
rejected, 2 on unusable input.  ``verify`` re-derives certificates from
their recorded inputs and byte-compares; ``replay`` re-runs a recorded
invocation into a scratch directory and byte-compares the artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
import tempfile

from .certificates import (
    CertificateError,
    RunManifest,
    file_digest,
    load_certificate,
    load_manifest,
    verify_envelope,
    write_certificate,
    write_manifest,
)
from .configurations import minimal_point_in_cylinder
from .constructions import (
    MEMBER_PREDICATES,
    ConstructionError,
    build_phi,
    freeness_envelope,
    gamma_densify,
    pad_free,
    shatter_small,
    verify_phi,
)
from .corpus import (
    BUILTIN_FACTOR_NAMES,
    BUILTIN_NAMES,
    builtin_factor,
    load_spec,
)
from .groups import (
    FINITE_TABLES,
    BallCapExceeded,
    FiniteSubset,
    GroupContext,
    ball_cap,
    is_small,
    maximal_separated,
    parse_group,
    parse_int,
    parse_subset,
    separation_conflict,
    syndeticity_witness,
)
from .irreducibility import (
    GluingError,
    conf,
    irreducibility_envelope,
    max_separated_subshift,
)
from .scp import (
    disjointness_window_check,
    joint_realize,
    lift_scp_witness,
    scp_witness,
)
from .subshifts import (
    Pattern,
    SubshiftError,
    is_minimal_at,
    parse_semantics,
    pattern_set,
    sorted_patterns,
)


# -- argument parsing helpers -------------------------------------------------

def parse_region(ctx: GroupContext, text: str) -> FiniteSubset:
    """``lo..hi`` intervals on the rank-1 lattice, else subset syntax."""
    text = text.strip()
    if ".." in text and ctx.describe() == "Z":
        lo_s, hi_s = text.split("..", 1)
        try:
            lo, hi = parse_int(lo_s), parse_int(hi_s)
        except ValueError:
            raise SubshiftError(f"cannot parse interval {text!r}") from None
        if hi < lo:
            raise SubshiftError(f"empty interval {text!r}")
        cap = ball_cap()
        if hi - lo >= cap:
            raise BallCapExceeded(f"interval {text!r} exceeds SYMDYN_MAX_BALL={cap} cells")
        return FiniteSubset.of(ctx, [(n,) for n in range(lo, hi + 1)])
    return parse_subset(ctx, text)


def int_arg(text: str) -> int:
    """``type=`` of every integer flag: :func:`parse_int`, failing the
    way argparse fails ``type=int`` (``argument --scale: invalid int value``)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def parse_letter(text: str):
    """``0`` for depth-1 letters, ``0.1`` for stacked ones."""
    text = text.strip()
    try:
        parts = [parse_int(p) for p in text.split(".")]
    except ValueError:
        raise SubshiftError(f"cannot parse letter {text!r}") from None
    return parts[0] if len(parts) == 1 else tuple(parts)


def parse_pattern(ctx: GroupContext, text: str) -> Pattern:
    """Comma-separated ``cell=value`` pairs, e.g. ``0=1,1=0``."""
    mapping = {}
    for chunk in text.split(","):
        cell, eq, val = chunk.partition("=")
        if not eq:
            raise SubshiftError(f"pattern entry {chunk!r} is not cell=value")
        g = ctx.element_from_text(cell.strip())
        if g in mapping:
            raise SubshiftError(
                f"pattern names the cell {ctx.element_to_text(g)} twice"
            )
        mapping[g] = parse_letter(val)
    if not mapping:
        raise SubshiftError("empty pattern")
    return Pattern.of(ctx, mapping)


def format_pattern(ctx: GroupContext, p: Pattern) -> str:
    def fmt(v):
        return ".".join(str(x) for x in v) if isinstance(v, tuple) else str(v)

    return ",".join(f"{ctx.element_to_text(g)}={fmt(v)}" for g, v in p.items())


def _gamma_name(text: str) -> str:
    return text if text.startswith("finite:") else f"finite:{text}"


# -- per-command handlers ------------------------------------------------------
# Each returns (exit_code, [(emitted_path, digest), ...]).

def _finish(env: dict, args, label: str):
    outputs = []
    if getattr(args, "emit", None):
        write_certificate(args.emit, env)
        outputs.append((args.emit, file_digest(args.emit)))
    word = "holds" if env["verdict"] else "fails"
    print(f"{label}: {word} (claim {env['claim']}, scale {env['scale']})")
    return (0 if env["verdict"] else 1), outputs


def _cmd_corpus(args):
    print("systems: " + ", ".join(BUILTIN_NAMES))
    print("factors: " + ", ".join(BUILTIN_FACTOR_NAMES))
    print("finite groups: " + ", ".join(sorted(FINITE_TABLES)))
    print("member predicates: " + ", ".join(sorted(MEMBER_PREDICATES)))
    return 0, []


def _cmd_ball(args):
    ctx = parse_group(args.group)
    ball = ctx.ball(args.radius)
    print(f"|ball({args.radius})| = {len(ball)}")
    print(", ".join(ctx.element_to_text(g) for g in ball))
    return 0, []


def _cmd_separated(args):
    ctx = parse_group(args.group)
    d = parse_subset(ctx, args.d)
    s = parse_subset(ctx, args.s)
    conflict = separation_conflict(ctx, d, s)
    if conflict is None:
        print(f"separated: {len(s)} points, translates of size {len(d)} disjoint")
        return 0, []
    a, b = conflict
    print(
        "not separated: translates of "
        f"{ctx.element_to_text(a)} and {ctx.element_to_text(b)} meet"
    )
    return 1, []


def _cmd_maximal_separated(args):
    ctx = parse_group(args.group)
    d = parse_subset(ctx, args.d)
    region = parse_region(ctx, args.region)
    s = maximal_separated(ctx, d, region)
    syn = syndeticity_witness(ctx, s, region, args.syndetic_cap)
    print(f"selected {len(s)} of {len(region)}: "
          + ", ".join(ctx.element_to_text(g) for g in s))
    if syn.found:
        print(f"syndetic in the region at radius {syn.radius}")
        return 0, []
    print(f"not syndetic up to radius {syn.checked_radius}")
    return 1, []


def _cmd_small(args):
    ctx = parse_group(args.group)
    if ctx.describe() != "Z":
        raise SubshiftError("small reads its member sets on the integers: "
                            f"the group must be Z, not {ctx.describe()}")
    member = MEMBER_PREDICATES.get(args.member)
    if member is None:
        raise SubshiftError(
            f"unknown member predicate {args.member!r}; have "
            + ", ".join(sorted(MEMBER_PREDICATES))
        )
    region = parse_region(ctx, args.region)
    report = is_small(ctx, member, args.radius, region, args.syndetic_cap)
    for v in report.per_radius:
        extra = f", gap {v.gap}" if v.gap is not None else ""
        print(f"radius {v.radius}: {v.verdict} "
              f"(avoidance {v.avoidance_count}{extra})")
    print(f"overall: {report.overall}")
    return (0 if report.overall == "small-up-to-scale" else 1), []


def _cmd_patterns(args):
    ctx, spec = load_spec(args.spec)
    f = parse_region(ctx, args.window)
    sem = parse_semantics(args.sem)
    pats = sorted_patterns(pattern_set(ctx, spec, f, sem))
    print(f"{len(pats)} admissible patterns on {len(f)} cells")
    if args.list:
        for p in pats:
            print("  " + format_pattern(ctx, p))
    return 0, []


def _cmd_minimal_check(args):
    ctx, spec = load_spec(args.spec)
    probe = parse_region(ctx, args.probe)
    window = parse_region(ctx, args.window)
    sem = parse_semantics(args.sem)
    level = spec.stack if args.level is None else args.level
    res = is_minimal_at(ctx, spec, level, probe, window, sem)
    if res.holds:
        print(f"window-minimal: {res.scanned} windows each visit all probe patterns")
        return 0, []
    print(f"not window-minimal: a window misses {format_pattern(ctx, res.missing)}")
    return 1, []


def _cmd_irreducible(args):
    ctx, spec = load_spec(args.spec)
    d = parse_subset(ctx, args.d)
    sem = parse_semantics(args.sem)
    level = spec.stack if args.level is None else args.level
    env = irreducibility_envelope(ctx, spec, level, d, args.scale, sem)
    return _finish(env, args, f"{spec.name or 'system'} gluing over D")


def _cmd_conf(args):
    ctx, spec = load_spec(args.spec)
    f = parse_region(ctx, args.f)
    a = parse_pattern(ctx, args.a)
    b = parse_pattern(ctx, args.b)
    sem = parse_semantics(args.sem)
    level = spec.stack if args.level is None else args.level
    glued = conf(ctx, spec, level, f, a, b, sem)
    print(format_pattern(ctx, glued))
    return 0, []


def _cmd_max_sep_shift(args):
    ctx = parse_group(args.group)
    d = parse_subset(ctx, args.d)
    spec, witness = max_separated_subshift(ctx, d)
    print(f"{len(spec.forbidden)} forbidden patterns; "
          f"claimed gluing ball has {len(witness)} elements")
    if args.check_scale:
        env = irreducibility_envelope(ctx, spec, 1, witness, args.check_scale)
        return _finish(env, args, "maximal-separation system")
    return 0, []


def _cmd_densify(args):
    ctx, spec = load_spec(args.spec)
    f = parse_region(ctx, args.window)
    level = spec.stack if args.level is None else args.level
    sys_ = build_phi(ctx, spec, level, f, args.witness_scale)
    # verified first, so a usage error verify_phi raises leaves stdout empty
    env = verify_phi(sys_, args.scale, args.samples, args.seed)
    print(f"displaying ball radius {sys_.v_radius}, "
          f"marker spacing {sys_.marker_spacing}, "
          f"syndetic bound {sys_.syndetic_bound}")
    return _finish(env, args, "densification")


def _cmd_pad_free(args):
    ctx, spec = load_spec(args.spec)
    padded = pad_free(spec, args.levels, args.alphabet)
    g = ctx.element_from_text(args.g)
    env = freeness_envelope(ctx, padded, g, radius_cap=args.radius_cap)
    return _finish(env, args, f"freeness of translation by {args.g}")


def _cmd_shatter(args):
    ctx = parse_group("Z")
    region = parse_region(ctx, args.region)
    c_elems = parse_subset(ctx, args.c)
    result = shatter_small(ctx, args.member, list(c_elems), region)
    print(f"displacement radius {result.d_radius}, grid period {result.x_spacing}")
    return _finish(result.certificate, args, f"shattering {args.member}")


def _cmd_gamma_densify(args):
    ctx, spec = load_spec(args.spec)
    gamma = parse_group(_gamma_name(args.gamma))
    f = parse_region(ctx, args.window)
    gsys, env = gamma_densify(ctx, gamma, spec, f, args.eps, args.scale)
    phi = gsys.phi
    print(f"stamp radius {phi.v_radius}, marker spacing {phi.marker_spacing}, "
          f"equivariant bound {gsys.syndetic_bound}")
    return _finish(env, args, f"equivariant densification over {gamma.describe()}")


def _cmd_scp(args):
    ctx, spec = load_spec(args.spec)
    d = parse_subset(ctx, args.d)
    u = parse_pattern(ctx, args.u)
    w, env = scp_witness(ctx, spec, d, u, args.scale, args.max_size)
    if w is not None:
        print("covering set: " + ", ".join(ctx.element_to_text(g) for g in w.s))
    return _finish(env, args, "separated covering")


def _cmd_lift_scp(args):
    factor = builtin_factor(args.factor)
    ctx = parse_group(factor.group)
    d = parse_subset(ctx, args.d)
    u = parse_pattern(ctx, args.u)
    w, env = lift_scp_witness(ctx, factor, d, u, args.scale, args.max_size)
    if w is not None:
        print("covering set: " + ", ".join(ctx.element_to_text(g) for g in w.s))
    return _finish(env, args, f"covering lift through {args.factor}")


def _cmd_joint_realize(args):
    ctx, spec = load_spec(args.spec)
    alpha = parse_pattern(ctx, args.alpha)
    u = parse_pattern(ctx, args.u)
    jr, env = joint_realize(
        ctx, spec, alpha, u, args.depth, args.scale, args.max_size
    )
    print(f"realized at g = {ctx.element_to_text(jr.g)} "
          f"(stamp at {ctx.element_to_text(jr.h)}, "
          f"offset {ctx.element_to_text(jr.s)})")
    return _finish(env, args, "joint realization")


def _cmd_disjoint(args):
    ctx, spec_x = load_spec(args.spec_x)
    ctx_y, spec_y = load_spec(args.spec_y)
    if ctx_y.describe() != ctx.describe():
        raise SubshiftError("both systems must live on the same group")
    f = parse_region(ctx, args.window)
    env = disjointness_window_check(ctx, spec_x, spec_y, f, args.scale)
    ev = env["evidence"]
    print(f"{ev['realized']}/{ev['pairs']} joint window pairs realized")
    return _finish(env, args, "joint window realization")


def _cmd_cylinder_point(args):
    ctx = parse_group(args.group)
    u = parse_pattern(ctx, args.u)
    point = minimal_point_in_cylinder(ctx, u, parse_letter(args.default))
    print(format_pattern(ctx, point.window(ctx.ball(args.radius))))
    return 0, []


def _cmd_verify(args):
    all_ok = True
    for path in args.certificates:
        try:
            env = load_certificate(path)
        except (CertificateError, OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc})")
            all_ok = False
            continue
        res = verify_envelope(env)
        print(f"{path}: {'ok' if res.ok else 'FAILED'} - {res.detail}")
        all_ok = all_ok and res.ok
    return (0 if all_ok else 1), []


def _cmd_replay(args):
    """Re-run the recorded command with its certificate sent to a scratch
    directory; a recorded run manifest is not rewritten."""
    manifest = load_manifest(args.manifest_path)
    err = io.StringIO()
    try:  # argparse prints help (-h) on stdout and errors on stderr
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            recorded = build_parser().parse_args(manifest.argv)
    except SystemExit:
        detail = err.getvalue().rpartition("error: ")[2].strip() or "no command to run"
        raise CertificateError(f"recorded argv does not parse: {detail}") from None
    if recorded.command == "replay":
        raise CertificateError("a manifest cannot record a replay")
    with tempfile.TemporaryDirectory() as tmp:
        redirected: dict[str, str] = {}
        if getattr(recorded, "emit", None):
            orig = recorded.emit
            recorded.emit = redirected[orig] = os.path.join(tmp, os.path.basename(orig))
        code, _ = _run(recorded)
        if code not in (0, 1):
            print(f"replay: recorded command exited {code}")
            return 1, []
        ok = True
        for path, digest in manifest.outputs:
            fresh = redirected.get(path)
            if fresh is None or not os.path.exists(fresh):
                print(f"replay {path}: not produced on re-run")
                ok = False
                continue
            if file_digest(fresh) == digest:
                print(f"replay {path}: byte-identical")
            else:
                print(f"replay {path}: MISMATCH")
                ok = False
    return (0 if ok else 1), []


# -- parser --------------------------------------------------------------------

def _add_emit(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emit", metavar="PATH", help="write the certificate envelope")
    p.add_argument(
        "--manifest", metavar="PATH", help="record argv and artifact digests"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``symdyn`` parser, built on the first call and shared after it.

    ``parse_args`` keeps no state between calls (each builds a fresh
    namespace), so ``main`` and ``replay`` parse with this one object.
    """
    parser = argparse.ArgumentParser(
        prog="symdyn",
        description="finite-scale constructions and verifiers on discrete groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="list builtin systems and predicates")
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("ball", help="enumerate a word-length ball")
    p.add_argument("group")
    p.add_argument("radius", type=int_arg)
    p.set_defaults(handler=_cmd_ball)

    p = sub.add_parser("separated", help="check D-separation of a finite set")
    p.add_argument("group")
    p.add_argument("--d", required=True, help="separation set (ball:r or list)")
    p.add_argument("--s", required=True, help="the set to test")
    p.set_defaults(handler=_cmd_separated)

    p = sub.add_parser(
        "maximal-separated", help="greedy maximal separated set + syndeticity"
    )
    p.add_argument("group")
    p.add_argument("--d", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--syndetic-cap", type=int_arg, default=8)
    p.set_defaults(handler=_cmd_maximal_separated)

    p = sub.add_parser("small", help="finite-scale smallness report")
    p.add_argument("group")
    p.add_argument("--member", required=True)
    p.add_argument("--radius", type=int_arg, default=2)
    p.add_argument("--region", required=True)
    p.add_argument("--syndetic-cap", type=int_arg, default=20)
    p.set_defaults(handler=_cmd_small)

    p = sub.add_parser("patterns", help="enumerate admissible window patterns")
    p.add_argument("spec")
    p.add_argument("--window", required=True)
    p.add_argument("--sem", default="exact")
    p.add_argument("--list", action="store_true")
    p.set_defaults(handler=_cmd_patterns)

    p = sub.add_parser("minimal-check", help="do all windows visit all patterns?")
    p.add_argument("spec")
    p.add_argument("--probe", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--level", type=int_arg)
    p.add_argument("--sem", default="exact")
    p.set_defaults(handler=_cmd_minimal_check)

    p = sub.add_parser("irreducible", help="exhaustive gluing check over D")
    p.add_argument("spec")
    p.add_argument("--d", required=True)
    p.add_argument("--scale", type=int_arg, required=True)
    p.add_argument("--level", type=int_arg)
    p.add_argument("--sem", default="exact")
    _add_emit(p)
    p.set_defaults(handler=_cmd_irreducible)

    p = sub.add_parser("conf", help="deterministic least joint extension")
    p.add_argument("spec")
    p.add_argument("--f", required=True, help="target domain")
    p.add_argument("--a", required=True, help="first pattern (cell=value,...)")
    p.add_argument("--b", required=True, help="second pattern")
    p.add_argument("--level", type=int_arg)
    p.add_argument("--sem", default="exact")
    p.set_defaults(handler=_cmd_conf)

    p = sub.add_parser(
        "max-sep-shift", help="maximal-separated-set system for D"
    )
    p.add_argument("group")
    p.add_argument("--d", required=True)
    p.add_argument("--check-scale", type=int_arg, default=0,
                   help="also run the gluing check at this scale")
    _add_emit(p)
    p.set_defaults(handler=_cmd_max_sep_shift)

    p = sub.add_parser("densify", help="marker densification + verification")
    p.add_argument("spec")
    p.add_argument("--window", required=True)
    p.add_argument("--level", type=int_arg)
    p.add_argument("--scale", type=int_arg, default=40)
    p.add_argument("--samples", type=int_arg, default=12)
    p.add_argument("--seed", type=int_arg, default=0)
    p.add_argument("--witness-scale", type=int_arg, default=6)
    _add_emit(p)
    p.set_defaults(handler=_cmd_densify)

    p = sub.add_parser("pad-free", help="pad with free levels, certify essential freeness")
    p.add_argument("spec")
    p.add_argument("--g", required=True, help="translation to certify")
    p.add_argument("--levels", type=int_arg, default=1)
    p.add_argument("--alphabet", type=int_arg, default=2)
    p.add_argument("--radius-cap", type=int_arg, default=4)
    _add_emit(p)
    p.set_defaults(handler=_cmd_pad_free)

    p = sub.add_parser("shatter", help="realize a 0/1 choice on a small set")
    p.add_argument("--member", required=True)
    p.add_argument("--c", required=True, help="members to set to 1")
    p.add_argument("--region", required=True)
    _add_emit(p)
    p.set_defaults(handler=_cmd_shatter)

    p = sub.add_parser(
        "gamma-densify", help="equivariant densification over a finite group"
    )
    p.add_argument("gamma", help="finite group name (e.g. z2)")
    p.add_argument("spec")
    p.add_argument("--window", required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--scale", type=int_arg, default=40)
    _add_emit(p)
    p.set_defaults(handler=_cmd_gamma_densify)

    p = sub.add_parser("scp", help="least separated covering set")
    p.add_argument("spec")
    p.add_argument("--d", required=True)
    p.add_argument("--u", required=True, help="target cylinder (cell=value,...)")
    p.add_argument("--scale", type=int_arg, default=8)
    p.add_argument("--max-size", type=int_arg, default=4)
    _add_emit(p)
    p.set_defaults(handler=_cmd_scp)

    p = sub.add_parser("lift-scp", help="covering set lifted through a block map")
    p.add_argument("factor", help="builtin factor name")
    p.add_argument("--d", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--scale", type=int_arg, default=8)
    p.add_argument("--max-size", type=int_arg, default=4)
    _add_emit(p)
    p.set_defaults(handler=_cmd_lift_scp)

    p = sub.add_parser(
        "joint-realize", help="pattern on a free point + cylinder, one position"
    )
    p.add_argument("spec")
    p.add_argument("--alpha", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--depth", type=int_arg, default=4)
    p.add_argument("--scale", type=int_arg, default=8)
    p.add_argument("--max-size", type=int_arg, default=4)
    _add_emit(p)
    p.set_defaults(handler=_cmd_joint_realize)

    p = sub.add_parser(
        "disjoint", help="realize all joint window pairs of two systems"
    )
    p.add_argument("spec_x")
    p.add_argument("spec_y")
    p.add_argument("--window", required=True)
    p.add_argument("--scale", type=int_arg, default=80)
    _add_emit(p)
    p.set_defaults(handler=_cmd_disjoint)

    p = sub.add_parser(
        "cylinder-point", help="periodic point stamping a cylinder pattern"
    )
    p.add_argument("group")
    p.add_argument("--u", required=True)
    p.add_argument("--default", default="0", help="letter off the stamps")
    p.add_argument("--radius", type=int_arg, default=6)
    p.set_defaults(handler=_cmd_cylinder_point)

    p = sub.add_parser("verify", help="re-derive certificates and byte-compare")
    p.add_argument("certificates", nargs="+")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("replay", help="re-run a manifest, compare artifacts")
    # dest must not be "manifest": main() writes a run manifest to
    # args.manifest after the handler, which would clobber the input file
    p.add_argument("manifest_path", metavar="manifest")
    p.set_defaults(handler=_cmd_replay)

    return parser


def _argv_without_manifest(argv: list[str]) -> list[str]:
    """``argv`` less ``--manifest`` or any abbreviation of it, and its value."""
    out = []
    skip = False
    for tok in argv:
        flag, eq, _ = tok.partition("=")
        if skip:
            skip = False
        elif len(flag) > 2 and "--manifest".startswith(flag):
            skip = not eq
        else:
            out.append(tok)
    return out


def _run(args):
    """Run the parsed command's handler, reporting its errors on stderr.

    Returns the handler's ``(exit_code, outputs)``, or ``(1, None)`` for a
    rejected construction or an invalid certificate or manifest and
    ``(2, None)`` for unusable input.
    """
    try:
        return args.handler(args)
    except (ConstructionError, GluingError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1, None
    except CertificateError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1, None
    except (ValueError, OSError, BallCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    code, outputs = _run(args)
    if outputs is not None and getattr(args, "manifest", None):
        manifest = RunManifest(
            tuple(_argv_without_manifest(argv)), tuple(outputs)
        )
        write_manifest(args.manifest, manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
