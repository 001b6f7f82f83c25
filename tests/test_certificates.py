"""Envelope shape, canonical serialization, the rebuild-and-compare
verifier, and run manifests."""

import hashlib
import json

import pytest

from symdyn.certificates import (
    CertificateError,
    RunManifest,
    canonical_json,
    check_envelope_shape,
    file_digest,
    known_claims,
    load_certificate,
    load_manifest,
    make_envelope,
    register_claim,
    verify_envelope,
    write_certificate,
    write_manifest,
)
from symdyn.corpus import builtin_spec
from symdyn.groups import parse_group
from symdyn.irreducibility import irreducibility_envelope

Z = parse_group("Z")


def envelope_digest(env):
    return hashlib.sha256(canonical_json(env).encode("utf-8")).hexdigest()


def sample_envelope():
    return irreducibility_envelope(Z, builtin_spec("golden_mean"), 1, Z.ball(1), 6)


# --- canonical form ----------------------------------------------------------


def test_canonical_json_is_order_insensitive_and_minimal():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": None}})
    b = canonical_json({"c": {"x": None, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a
    assert json.loads(a) == {"a": [1, 2], "b": 1, "c": {"x": None, "y": 0}}


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_envelope_digest_tracks_content():
    env = sample_envelope()
    d1 = envelope_digest(env)
    changed = dict(env)
    changed["scale"] = env["scale"] + 1
    assert d1 != envelope_digest(changed)
    assert d1 == envelope_digest(json.loads(canonical_json(env)))


# --- shape checks ------------------------------------------------------------


def test_make_envelope_has_exactly_the_seven_keys():
    env = make_envelope("irreducible-gluing", "m", {}, 3, True, {})
    assert set(env) == {
        "claim", "module", "inputs", "scale", "verdict", "evidence", "version",
    }
    assert env["version"] == 1


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda e: e.pop("scale"), "exactly the keys"),
        (lambda e: e.update(extra=1), "exactly the keys"),
        (lambda e: e.update(claim=""), "claim"),
        (lambda e: e.update(module=7), "module"),
        (lambda e: e.update(inputs=[]), "objects"),
        (lambda e: e.update(scale=True), "scale"),
        (lambda e: e.update(scale="3"), "scale"),
        (lambda e: e.update(verdict=1), "verdict"),
        (lambda e: e.update(version=2), "version"),
    ],
)
def test_check_envelope_shape_rejections(mutate, message):
    env = make_envelope("c", "m", {}, 3, True, {})
    mutate(env)
    with pytest.raises(CertificateError, match=message):
        check_envelope_shape(env)


def test_check_envelope_shape_rejects_non_json_values():
    env = make_envelope("c", "m", {}, 3, True, {})
    env["evidence"] = {"x": {1, 2}}
    with pytest.raises(TypeError):
        check_envelope_shape(env)


# --- verification ------------------------------------------------------------


def test_all_nine_claims_are_registered():
    assert set(known_claims()) == {
        "irreducible-gluing",
        "essential-freeness",
        "phi-densification",
        "small-set-shattering",
        "gamma-densification",
        "scp-cover",
        "scp-lift",
        "joint-realization",
        "disjoint-window",
    }


def test_verify_envelope_reproduces_and_detects_tampering():
    env = sample_envelope()
    res = verify_envelope(env)
    assert res.ok
    assert "byte-identically" in res.detail

    flipped = dict(env)
    flipped["verdict"] = not env["verdict"]
    res2 = verify_envelope(flipped)
    assert not res2.ok
    assert "verdict" in res2.detail

    cooked = dict(env)
    cooked["evidence"] = dict(env["evidence"], pairs_checked=99999)
    res3 = verify_envelope(cooked)
    assert not res3.ok
    assert "evidence.pairs_checked" in res3.detail


def test_verify_envelope_recomputes_from_inputs_not_evidence():
    # shrinking the recorded scale honestly re-checks the smaller claim:
    # the rebuilt envelope differs (scale and evidence change together)
    env = sample_envelope()
    smaller = dict(env)
    smaller["inputs"] = dict(env["inputs"], scale=4)
    smaller["scale"] = 4
    res = verify_envelope(smaller)
    assert not res.ok  # evidence still belongs to the original run
    rebuilt = res.rebuilt
    assert rebuilt is not None
    assert rebuilt["inputs"]["scale"] == 4
    assert verify_envelope(rebuilt).ok


def test_verify_envelope_unknown_claim():
    env = make_envelope("no-such-claim", "m", {}, 3, True, {})
    res = verify_envelope(env)
    assert not res.ok
    assert "unknown claim" in res.detail


def test_verify_envelope_reports_rebuild_crashes():
    env = sample_envelope()
    broken = dict(env)
    broken["inputs"] = dict(env["inputs"], group="Q8")
    res = verify_envelope(broken)
    assert not res.ok
    assert "rebuild failed" in res.detail


def test_verify_envelope_rejects_malformed_input():
    res = verify_envelope({"claim": "x"})
    assert not res.ok
    assert "malformed" in res.detail


def test_register_claim_rejects_duplicates():
    # importing symdyn registers every claim, so the name is taken
    assert "irreducible-gluing" in known_claims()
    with pytest.raises(CertificateError, match="duplicate"):
        register_claim(
            "irreducible-gluing", "irreducibility", (("group", "group"),), dict
        )


@pytest.mark.parametrize(
    "fields, match",
    [
        ((("spec", "sft"), ("group", "group")), "must start with its group"),
        ((("group", "group"), ("spec", "matrix")), "unknown kinds"),
    ],
)
def test_register_claim_rejects_bad_fields(fields, match):
    with pytest.raises(CertificateError, match=match):
        register_claim("no-such-claim", "m", fields, dict)
    assert "no-such-claim" not in known_claims()


# --- files -------------------------------------------------------------------


def test_write_and_load_certificate_round_trip(tmp_path):
    env = sample_envelope()
    path = str(tmp_path / "c.json")
    text = write_certificate(path, env)
    assert text == canonical_json(env) + "\n"
    assert load_certificate(path) == env
    assert verify_envelope(load_certificate(path)).ok


def test_load_certificate_rejects_bad_shape(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"claim": "x"}\n')
    with pytest.raises(CertificateError):
        load_certificate(path)


def test_file_digest_matches_content(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("hello\n")
    assert file_digest(str(p)) == hashlib.sha256(b"hello\n").hexdigest()


# --- manifests ---------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    m = RunManifest(("scp", "--group", "Z"), (("a.json", "ff" * 32),))
    path = str(tmp_path / "m.json")
    write_manifest(path, m)
    assert load_manifest(path) == m


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"argv": ["x"], "outputs": [], "version": 2},
        {"argv": "scp", "outputs": [], "version": 1},
        {"argv": [1], "outputs": [], "version": 1},
        {"argv": [], "outputs": {}, "version": 1},
        {"argv": [], "outputs": [["only-path"]], "version": 1},
        {"argv": [], "outputs": [["p", 5]], "version": 1},
    ],
)
def test_manifest_from_json_rejections(obj):
    with pytest.raises(CertificateError):
        RunManifest.from_json(obj)
