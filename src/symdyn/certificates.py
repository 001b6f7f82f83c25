"""Deterministic verification envelopes and replayable run manifests.

Every headline check in this package can emit a *certificate envelope*: a
small JSON document recording what was claimed, the raw inputs needed to
rebuild the check from scratch, the scale it ran at, the verdict, and the
evidence the checker produced.  Envelopes are serialized canonically
(sorted keys, fixed separators, no timestamps), so a re-run from the same
inputs yields byte-identical artifacts.

Each claim kind is declared once, as a :class:`Claim` record: its name,
its module, its input fields as ordered ``(input key, kind)`` pairs and a
run function that turns the decoded inputs back into the envelope.  The
builder writes ``inputs`` through the record, and one codec per kind
encodes each value to JSON and decodes it back, so the input format of a
claim is written in exactly one place.

Verification never trusts the stored verdict or evidence:
:func:`verify_envelope` decodes the raw inputs through the claim's record,
re-runs it and byte-compares.  Any edit to the verdict or to the evidence
therefore fails re-verification, and an edit to the inputs turns the
envelope into a different claim that is re-checked on its own terms.
"""

from __future__ import annotations

import hashlib
import json
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from .corpus import builtin_factor
from .groups import FiniteSubset, ValueType, parse_group
from .subshifts import Pattern, SftSpec, SubstitutionSpec, parse_semantics

ENVELOPE_VERSION = 1

ENVELOPE_KEYS = ("claim", "module", "inputs", "scale", "verdict", "evidence", "version")


class CertificateError(RuntimeError):
    """Malformed envelope or manifest."""


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, minimal separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def make_envelope(
    claim: str,
    module: str,
    inputs: dict,
    scale: int,
    verdict: bool,
    evidence: dict,
) -> dict:
    env = {
        "claim": claim,
        "module": module,
        "inputs": inputs,
        "scale": scale,
        "verdict": verdict,
        "evidence": evidence,
        "version": ENVELOPE_VERSION,
    }
    check_envelope_shape(env)
    return env


def check_envelope_shape(env: dict) -> None:
    if not isinstance(env, dict) or set(env) != set(ENVELOPE_KEYS):
        raise CertificateError(
            f"envelope must have exactly the keys {list(ENVELOPE_KEYS)}"
        )
    if not isinstance(env["claim"], str) or not env["claim"]:
        raise CertificateError("claim must be a non-empty string")
    if not isinstance(env["module"], str):
        raise CertificateError("module must be a string")
    if not isinstance(env["inputs"], dict) or not isinstance(env["evidence"], dict):
        raise CertificateError("inputs and evidence must be objects")
    if not isinstance(env["scale"], int) or isinstance(env["scale"], bool):
        raise CertificateError("scale must be an integer")
    if not isinstance(env["verdict"], bool):
        raise CertificateError("verdict must be a boolean")
    if env["version"] != ENVELOPE_VERSION:
        raise CertificateError(f"unsupported envelope version {env['version']!r}")
    # Canonical form must exist (catches non-JSON values early).
    canonical_json(env)


def write_certificate(path: str, env: dict) -> str:
    check_envelope_shape(env)
    text = canonical_json(env) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def load_certificate(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        env = json.load(fh)
    check_envelope_shape(env)
    return env


# -- claim registry ---------------------------------------------------------

def _to_json(ctx, value):
    return value.to_json(ctx)


def _same(ctx, value):
    return value


# kind -> (encode(ctx, value), decode(ctx, obj)), where ``ctx`` is the
# claim's group context.  Only ``scp-cover`` declares ``spec``, which also
# admits a substitution; every other claim reads finite-type ``sft`` specs.
_CODECS: dict[str, tuple[Callable, Callable]] = {
    "group": (lambda ctx, g: g.describe(), lambda ctx, obj: parse_group(obj)),
    "sft": (_to_json, SftSpec.from_json),
    "spec": (
        _to_json,
        lambda ctx, obj: (
            SubstitutionSpec if "substitution" in obj else SftSpec
        ).from_json(ctx, obj),
    ),
    "subset": (_to_json, FiniteSubset.from_json),
    "pattern": (_to_json, Pattern.from_json),
    "element": (
        lambda ctx, g: ctx.element_to_json(g),
        lambda ctx, obj: ctx.element_from_json(obj),
    ),
    "semantics": (
        lambda ctx, sem: sem.describe(),
        lambda ctx, obj: parse_semantics(obj),
    ),
    "int": (_same, lambda ctx, obj: int(obj)),
    "float": (lambda ctx, x: float(x), lambda ctx, obj: float(obj)),
    "bool": (_same, lambda ctx, obj: bool(obj)),
    "str": (_same, _same),
    "ints": (lambda ctx, xs: list(xs), lambda ctx, obj: tuple(obj)),
    "factor": (lambda ctx, f: f.name, lambda ctx, obj: builtin_factor(obj)),
}


class Claim(ValueType):
    """One certificate claim, declared once.

    ``fields`` lists ``(input key, kind)`` pairs in argument order; the
    first is always the ``group`` field, whose context the other fields
    are encoded and decoded in.  ``run`` takes the decoded values in that
    order and returns the envelope, so ``run(*values)`` rebuilds the
    envelope that :meth:`envelope` wrote for ``values``.  Claims pass a
    ``run`` lambda that names their builder, so the builder is looked up
    when the claim runs and a rebound module-level name (a profiler's
    wrapper, say) is honoured.
    """

    __slots__ = ("name", "module", "fields", "run")
    _key = attrgetter(*__slots__)

    def __init__(self, name: str, module: str, fields: tuple[tuple[str, str], ...],
                 run: Callable[..., dict]):
        self.name = name
        self.module = module
        self.fields = fields
        self.run = run
        if self.fields[:1] != (("group", "group"),):
            raise CertificateError(f"claim {self.name!r} must start with its group")
        unknown = [kind for _, kind in self.fields if kind not in _CODECS]
        if unknown:
            raise CertificateError(f"claim {self.name!r} has unknown kinds {unknown}")

    def envelope(self, values: tuple, scale: int, verdict: bool, evidence: dict):
        """Envelope whose inputs encode ``values``, given in field order."""
        ctx = values[0]
        inputs = {
            key: _CODECS[kind][0](ctx, value)
            for (key, kind), value in zip(self.fields, values, strict=True)
        }
        return make_envelope(self.name, self.module, inputs, scale, verdict, evidence)

    def rebuild(self, inputs: dict) -> dict:
        """Decode ``inputs`` field by field and re-run the claim."""
        ctx = parse_group(inputs["group"])
        return self.run(
            ctx,
            *(_CODECS[kind][1](ctx, inputs[key]) for key, kind in self.fields[1:]),
        )


_CLAIMS: dict[str, Claim] = {}


def register_claim(name: str, module: str, fields: tuple, run: Callable) -> Claim:
    """Declare a claim for :func:`known_claims` and :func:`verify_envelope`."""
    if name in _CLAIMS:
        raise CertificateError(f"duplicate claim {name!r}")
    _CLAIMS[name] = Claim(name, module, fields, run)
    return _CLAIMS[name]


def known_claims() -> tuple[str, ...]:
    return tuple(sorted(_CLAIMS))


class VerificationResult(NamedTuple):
    ok: bool
    detail: str
    rebuilt: Optional[dict] = None


def _first_difference(stored: dict, rebuilt: dict) -> str:
    for key in ENVELOPE_KEYS:
        a, b = stored.get(key), rebuilt.get(key)
        if canonical_json(a) != canonical_json(b):
            if isinstance(a, dict) and isinstance(b, dict):
                for sub in sorted(set(a) | set(b)):
                    if canonical_json(a.get(sub)) != canonical_json(b.get(sub)):
                        return f"{key}.{sub}: stored {a.get(sub)!r} != recomputed {b.get(sub)!r}"
            return f"{key}: stored {a!r} != recomputed {b!r}"
    return "no difference"


def verify_envelope(env: dict) -> VerificationResult:
    """Rebuild the envelope from its raw inputs and byte-compare."""
    try:
        check_envelope_shape(env)
    except CertificateError as exc:
        return VerificationResult(False, f"malformed envelope: {exc}")
    claim = _CLAIMS.get(env["claim"])
    if claim is None:
        return VerificationResult(False, f"unknown claim {env['claim']!r}")
    try:
        rebuilt = claim.rebuild(env["inputs"])
    except Exception as exc:  # noqa: BLE001 - report, never crash the verifier
        return VerificationResult(False, f"rebuild failed: {exc}")
    if canonical_json(rebuilt) == canonical_json(env):
        verdict = "holds" if env["verdict"] else "fails (as recorded)"
        return VerificationResult(True, f"reproduced byte-identically; claim {verdict}", rebuilt)
    return VerificationResult(False, _first_difference(env, rebuilt), rebuilt)


# -- run manifests ----------------------------------------------------------

MANIFEST_VERSION = 1


class RunManifest(NamedTuple):
    """Enough to re-run a CLI invocation and check outputs byte for byte."""

    argv: tuple[str, ...]
    outputs: tuple[tuple[str, str], ...]  # (path, sha256 of file text)
    version: int = MANIFEST_VERSION

    def to_json(self) -> dict:
        return {
            "argv": list(self.argv),
            "outputs": [[p, d] for p, d in self.outputs],
            "version": self.version,
        }

    @staticmethod
    def from_json(obj: dict) -> "RunManifest":
        if not isinstance(obj, dict) or obj.get("version") != MANIFEST_VERSION:
            raise CertificateError("unsupported manifest")
        argv = obj.get("argv")
        outs = obj.get("outputs")
        if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
            raise CertificateError("manifest argv must be a list of strings")
        if not isinstance(outs, list):
            raise CertificateError("manifest outputs must be a list")
        pairs = []
        for item in outs:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(x, str) for x in item)
            ):
                raise CertificateError("manifest output entries are [path, digest]")
            pairs.append((item[0], item[1]))
        return RunManifest(tuple(argv), tuple(pairs))


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(path: str, manifest: RunManifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(manifest.to_json()) + "\n")


def load_manifest(path: str) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return RunManifest.from_json(json.load(fh))
