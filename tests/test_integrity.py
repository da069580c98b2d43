import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from savi.commit import commit_update
from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.multiexp import multiexp
from savi.harness.attacks import forge_integrity_proof
from savi.rng import DeterministicRng
from savi.sampling import CheckParameters, SampleMatrix, plaintext_check, sample_matrix
from savi.zkp import (
    BoundExceededError,
    IntegrityProof,
    Transcript,
    gen_integrity_proof,
    ver_integrity_proof,
    ver_integrity_set,
    ver_range_proof,
)
from savi.zkp import integrity, sigma
from savi.group.generators import LAMBDA
from savi.zkp.integrity import MAX_TRIES
from sigma_reference import each_bump

Q = GROUP_ORDER

backend = make_backend("mock")


def _params(k, d, B=4.0):
    return CheckParameters.from_epsilon_log2(
        -16, n=2, m=0, d=d, k=k, M=16, B=B, b_max=64,
        frac_bits=2, b_coord=16,
    )


def _instance(params, u, seed=b"itest", b=backend):
    """Commit u, publish h, return everything both sides hold."""
    gens = GeneratorSet.derive(b, params.d, params.range_slots)
    matrix = sample_matrix(seed, params.k, params.d, params.M)
    rows = [[a % Q for a in matrix.a0]] + [
        [int(x) % Q for x in row] for row in matrix.rows
    ]
    h = [multiexp(gens.w, row) for row in rows]
    rng = DeterministicRng(seed + b"/client")
    r = rng.scalar()
    y, z = commit_update(u, r, gens), r * gens.g
    return gens, matrix, h, y, z, r, rng


def _scaled_update(params, c, rng):
    """Integer update with encoded norm ~= c * B * 2^frac_bits."""
    direction = rng.standard_normal(params.d)
    direction /= np.linalg.norm(direction)
    target = c * params.B * (1 << params.frac_bits)
    return [int(round(x * target)) for x in direction]


def test_zero_update_roundtrip():
    params = _params(k=4, d=8)
    u = [0] * params.d
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng)
    assert ok and reason is None


def test_half_bound_update_roundtrip():
    params = _params(k=16, d=32)
    u = _scaled_update(params, 0.5, np.random.default_rng(5))
    assert plaintext_check(u, sample_matrix(b"itest", 16, 32, 16), b0=params.b0)
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng)
    assert ok and reason is None


def test_bound_exceeded_raises_with_totals():
    params = _params(k=8, d=16)
    u = _scaled_update(params, 50.0, np.random.default_rng(6))
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    with pytest.raises(BoundExceededError) as exc:
        gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    assert exc.value.total > exc.value.b0 == params.b0


def test_dimension_mismatch_refused():
    params = _params(k=4, d=8)
    u = [1] * params.d
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    with pytest.raises(ValueError):
        gen_integrity_proof(params, gens, matrix, h[:-1], z, y, r, u, 1, 1, rng)
    with pytest.raises(ValueError):
        gen_integrity_proof(params, gens, matrix, h, z, y, r, u + [0], 1, 1, rng)


def _lying_proof(params, gens, matrix, h, z, y, r, u, client_id, rng):
    """A proof whose sigma proofs hold, with e_star built on the true
    projections shifted by one in the first row: it misses y by g."""
    v = matrix.row_inner(u)
    claims = [v[1] + 1] + v[2:]
    return integrity._prove(
        params, gens, matrix, h, z, y, r, [v[0]] + claims, claims, 1, client_id, rng
    )


def test_each_tampered_component_names_its_check():
    params = _params(k=4, d=8)
    u = _scaled_update(params, 0.4, np.random.default_rng(7))
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    g = gens.g

    def verdict(p, y_=None, h_=None):
        return ver_integrity_proof(
            params, gens, matrix, h_ or h, z, y_ or y, p, 1, 1, rng
        )

    assert verdict(proof) == (True, None)

    cases = [
        # structural damage is caught before any crypto runs
        (dataclasses.replace(proof, e_star=proof.e_star[:-1]), "malformed"),
        (dataclasses.replace(proof, e_star=proof.e_star + (g,)), "malformed"),
        # o_prime is in the square proof's statement alone
        (dataclasses.replace(proof, o_prime=proof.o_prime + g), "square"),
        # e_star is in the transcript, so a bumped entry fails the
        # wellformed proof first (it read "consistency" while the set's
        # consistency check ran before the per-client checks)
        (
            dataclasses.replace(
                proof, e_star=(proof.e_star[0] + g,) + proof.e_star[1:]
            ),
            "wellformed",
        ),
        # sigma-proof inputs or transcripts off by one point/scalar
        (
            dataclasses.replace(
                proof,
                rho=dataclasses.replace(proof.rho, y=(proof.rho.y + 1) % Q),
            ),
            "wellformed",
        ),
        (
            dataclasses.replace(
                proof,
                tau=dataclasses.replace(
                    proof.tau, y_vec=tuple((x + 1) % Q for x in proof.tau.y_vec)
                ),
            ),
            "square",
        ),
        # the proof of smallness: its packed answers' length is checked
        # with the shapes, Y and the z_j are in the transcript, and only the
        # link identity reads y_sigma (at savi/v6 a bumped projection range
        # proof was named range_ip)
        (dataclasses.replace(proof, z=proof.z + b"\0"), "malformed"),
        (dataclasses.replace(proof, z=proof.z[:-1]), "malformed"),
        (dataclasses.replace(proof, masks=proof.masks + g), "wellformed"),
        (dataclasses.replace(proof, z=bytes([proof.z[0] ^ 1]) + proof.z[1:]), "wellformed"),
        (
            dataclasses.replace(
                proof,
                rho=dataclasses.replace(proof.rho, y_sigma=(proof.rho.y_sigma + 1) % Q),
            ),
            "range_ip",
        ),
        (
            dataclasses.replace(
                proof,
                mu=dataclasses.replace(proof.mu, s=((proof.mu.s[0] + 1) % Q,) + proof.mu.s[1:]),
            ),
            "range_sum",
        ),
    ]
    for bad, expected in cases:
        ok, reason = verdict(bad)
        assert not ok
        assert reason == expected, f"expected {expected}, got {reason}"

    # commitments swapped under the prover's feet: y is in the transcript
    # too, so this reads "wellformed" (it read "consistency" before)
    y_swapped = [y[1], y[0]] + list(y[2:])
    ok, reason = verdict(proof, y_=y_swapped)
    assert (ok, reason) == (False, "wellformed")

    # a valid proof about projections other than those of the committed
    # update: e_star opens shifted claims, so only consistency objects
    assert verdict(_lying_proof(params, gens, matrix, h, z, y, r, u, 1, rng)) == (
        False, "consistency"
    )

    # wrong published h: e_star was built against the real one
    h_bad = [h[0] + g] + list(h[1:])
    ok, reason = verdict(proof, h_=h_bad)
    assert (ok, reason) == (False, "wellformed")


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_each_sigma_scalar_names_its_check(backend_name):
    # a sigma proof sends c and its responses; changing any one of them,
    # at any index, changes an announcement the verifier recomputes, so
    # the challenge it derives no longer matches
    params = _params(k=3, d=8)
    u = [1, 0, -2, 1, 0, 0, 3, -1]
    gens, matrix, h, y, z, r, rng = _instance(params, u, b=make_backend(backend_name))
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    assert ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng) == (True, None)
    tampered = [
        *[(dataclasses.replace(proof, rho=rho), "wellformed") for rho in each_bump(proof.rho)],
        *[(dataclasses.replace(proof, tau=tau), "square") for tau in each_bump(proof.tau)],
    ]
    # rho: c, y, k+1 entries of y_vec and y_sigma, which only the batched
    # link identity reads; tau: c, y, y_x and k entries each of y_vec and
    # y_w (at savi/v7, rho had k more, y_star, and tau c and 3k)
    assert len(tampered) == (params.k + 4) + (2 * params.k + 3)
    assert tampered[params.k + 3][0].rho.y_sigma != proof.rho.y_sigma
    tampered[params.k + 3] = (tampered[params.k + 3][0], "range_ip")
    for bad, label in tampered:
        verdict = ver_integrity_proof(params, gens, matrix, h, z, y, bad, 1, 1, rng)
        assert verdict == (False, label)


def _bumped_points(proof, g):
    """(``proof`` with one point plus g, the check that names it), for
    every point the proof sends."""
    rep = dataclasses.replace
    for t in range(len(proof.e_star)):
        e_star = proof.e_star[:t] + (proof.e_star[t] + g,) + proof.e_star[t + 1:]
        yield rep(proof, e_star=e_star), "wellformed"
    yield rep(proof, o_prime=proof.o_prime + g), "square"
    yield rep(proof, masks=proof.masks + g), "wellformed"
    yield rep(proof, rho=rep(proof.rho, t_link=proof.rho.t_link + g)), "wellformed"
    mu = proof.mu
    for field in ("a_commit", "a1_commit", "b1_commit"):
        yield rep(proof, mu=rep(mu, **{field: getattr(mu, field) + g})), "range_sum"
    for field in ("ls", "rs"):
        for i, point in enumerate(getattr(mu, field)):
            points = getattr(mu, field)[:i] + (point + g,) + getattr(mu, field)[i + 1:]
            yield rep(proof, mu=rep(mu, **{field: points})), "range_sum"


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_every_scalar_and_point_of_the_proof_is_rejected(backend_name):
    # each point, and each scalar of the slack range proof (the sigma
    # proofs' scalars have their own test above), plus g: each check
    # reads its part, so the verifier names the check it belongs to
    params = _params(k=3, d=8)
    u = [1, 0, -2, 1, 0, 0, 3, -1]
    gens, matrix, h, y, z, r, rng = _instance(params, u, b=make_backend(backend_name))
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    tampered = [
        *_bumped_points(proof, gens.g),
        *[(dataclasses.replace(proof, mu=mu), "range_sum") for mu in each_bump(proof.mu)],
    ]
    # k+1 points of e_star, o_prime, Y, t_link; mu's 2r + 3 points and
    # 2c + 1 scalars
    r_, c_ = len(proof.mu.ls), len(proof.mu.r)
    assert len(tampered) == (params.k + 1) + 3 + (2 * r_ + 3) + (2 * c_ + 1)
    for bad, label in tampered:
        verdict = ver_integrity_proof(params, gens, matrix, h, z, y, bad, 1, 1, rng)
        assert verdict == (False, label)


def _with_square_witness(params, gens, matrix, h, z, y, r, u, proof, shift):
    """``proof`` with o_prime, tau and mu made again for a prover whose
    w_t is v_t r plus ``shift[t]``: o_prime is what that witness opens,
    (sum v_t^2) g - sum shift_t h_t + x q, so the square proof holds, and
    the slack range proof is made on B0 - sum v_t^2 as an honest one."""
    g, q = gens.g, gens.q
    v = [x % Q for x in matrix.row_inner(u)]
    squares = sum(x * x for x in matrix.row_inner(u)[1:])
    # replay the transcript up to the square proof, as the verifier does
    tr = integrity._transcript(params, matrix, 1, 1, y, z, proof.e_star)
    rows = integrity._challenge_rows(tr, proof.masks, params.k)
    answers = integrity._unpack(params, proof.z)
    integrity._absorb_answers(tr, answers)
    link = integrity.Link(gens.smallness, rows, proof.masks, answers)
    assert integrity.ver_prf_wf(g, q, h, z, proof.e_star, link, proof.rho, tr) is not None
    rng = DeterministicRng(b"square-witness")
    x = rng.scalar()
    w = [(v[t] * r + shift[t - 1]) % Q for t in range(1, params.k + 1)]
    o_prime = multiexp([g, q, *h[1:]], [squares % Q, x, *(-s % Q for s in shift)])
    tau = integrity.gen_prf_sq(g, q, h[1:], proof.e_star[1:], o_prime, r, v[1:], w, x, rng, tr)
    mu = integrity.gen_range_proof(
        gens, params.b_max, [params.b0 - squares], [-x % Q],
        [integrity._slack(params, gens, o_prime)], rng, tr,
    )
    return dataclasses.replace(proof, o_prime=o_prime, tau=tau, mu=mu)


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_square_witness_off_for_one_projection_is_rejected(backend_name):
    # w_t = v_t r is what makes o_prime a commitment to the squares over
    # g and q alone.  A prover with w_t off by one for one t leaves an h_t
    # term in o_prime: its square proof holds, but the slack range proof
    # cannot open B0 g - o_prime over g and q, so it is named range_sum
    params = _params(k=3, d=8)
    u = [1, 0, -2, 1, 0, 0, 3, -1]
    gens, matrix, h, y, z, r, rng = _instance(params, u, b=make_backend(backend_name))
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    honest = _with_square_witness(params, gens, matrix, h, z, y, r, u, proof, [0, 0, 0])
    assert ver_integrity_proof(params, gens, matrix, h, z, y, honest, 1, 1, rng) == (True, None)
    for t in range(params.k):
        shift = [int(i == t) for i in range(params.k)]
        bad = _with_square_witness(params, gens, matrix, h, z, y, r, u, proof, shift)
        verdict = ver_integrity_proof(params, gens, matrix, h, z, y, bad, 1, 1, rng)
        assert verdict == (False, "range_sum"), t


@pytest.mark.parametrize("k", [1, 8, 32])
def test_proof_bytes_pinned(k):
    # e_star (k+1 points), o_prime, Y, and the sigma proofs in their
    # (c, s) form (rho 32k + 164 bytes, tau 64k + 104:
    # tests/test_serial.py), each field of the proof behind a 4-byte
    # count or length but o_prime and Y.  Then the packed answers (16 w
    # bytes) and the slack range proof, which do not depend on k.  At
    # savi/v7 (o and k points o'_t, rho 64k + 168, tau 96k + 44) this was
    # 256k + 304 bytes plus the same: 128k - 80 more
    params = _params(k=k, d=8)
    u = [1, 0, -2, 1, 0, 0, 3, -1]
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    fixed = 16 * params.z_width + len(proof.mu.to_bytes())
    assert len(proof.to_bytes()) - fixed == 128 * k + 384


def test_one_weight_vector_per_round(monkeypatch):
    # the round's consistency checks share one b and one c = b·A, drawn
    # after every proof is in; each client's wrong e_star is still caught
    params = _params(k=4, d=8)
    gens, matrix, h, _, _, _, rng = _instance(params, [0] * params.d)
    proofs = {}
    for client_id in range(1, 6):
        u = [(client_id * (l + 1)) % 5 - 2 for l in range(params.d)]
        r = rng.scalar()
        y, z = commit_update(u, r, gens), r * gens.g
        if client_id in (2, 5):
            proof = _lying_proof(params, gens, matrix, h, z, y, r, u, client_id, rng)
        else:
            proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, client_id, rng)
        proofs[client_id] = (z, y, proof)
    calls = []
    combine = SampleMatrix.weighted_combination

    def spy(matrix, weights):
        calls.append(len(weights))
        return combine(matrix, weights)

    monkeypatch.setattr(SampleMatrix, "weighted_combination", spy)
    verdicts = ver_integrity_set(params, gens, matrix, h, proofs, 1, DeterministicRng(b"v"))[0]
    assert verdicts == {1: None, 2: "consistency", 3: None, 4: None, 5: "consistency"}
    assert calls == [params.k + 1]


@pytest.mark.parametrize("k", [3, 16])
def test_sigma_and_commitment_muls_pinned(k, monkeypatch):
    # the verifier's two sigma checks cost 3k + 5 and 5k + 2 muls, 8k + 7
    # a client (11k + 5 at savi/v7, with o and o'_t).  The prover's e_star
    # and o_prime cost 2k + 4, its announcements at the nonces 2k + 3 and
    # 4k + 1: 8k + 8 (13k + 5 at savi/v7), plus the link's announcement
    # (at most LAMBDA + 1), Y's tries and the slack range proof
    params = _params(k=k, d=16)
    u = [3, -1, 2, 0, 5, -4, 1, 1, -2, 0, 7, 1, -1, 2, 3, -3]
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    assert all(matrix.row_inner(u)[1:])  # no zero projection, so no skipped term
    muls = {}

    def metered(name, fn):
        def run(*args):
            before = backend.counter.mul
            out = fn(*args)
            muls[name] = muls.get(name, 0) + backend.counter.mul - before
            return out
        return run

    for name in ("multiexps", "gen_prf_wf", "gen_prf_sq", "ver_prf_wf", "ver_prf_sq"):
        monkeypatch.setattr(integrity, name, metered(name, getattr(integrity, name)))
    monkeypatch.setattr(sigma, "multiexp", metered("link", sigma.multiexp))
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    assert ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng) == (True, None)
    assert muls["ver_prf_wf"] + muls["ver_prf_sq"] == 8 * k + 7
    assert (muls["multiexps"], muls["gen_prf_wf"] - muls["link"], muls["gen_prf_sq"]) == (
        2 * k + 4, 2 * k + 3, 4 * k + 1
    )
    assert 0 < muls["link"] <= LAMBDA + 1


def test_tampering_o_prime_names_square():
    # o_prime is in the square proof's statement and no other: moved by
    # g (one more square) or by q (another blind) it is named "square",
    # although its slack proof is then the one that fails first alone
    params = _params(k=4, d=8)
    u = [1, 0, -2, 1, 0, 0, 3, -1]
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    for shift in (gens.g, gens.q, -gens.g):
        bad = dataclasses.replace(proof, o_prime=proof.o_prime + shift)
        ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, bad, 1, 1, rng)
        assert (ok, reason) == (False, "square")


def test_proof_bound_to_round_and_client():
    # one transcript binds the session: replaying a proof in another
    # round or under another client id fails the first transcript check
    params = _params(k=4, d=8)
    u = [1, 0, -2, 1, 0, 0, 3, -1]
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    for round_no, client_id, expected in [
        (1, 1, (True, None)),
        (2, 1, (False, "wellformed")),
        (1, 2, (False, "wellformed")),
    ]:
        verdict = ver_integrity_proof(
            params, gens, matrix, h, z, y, proof, round_no, client_id, rng
        )
        assert verdict == expected


def test_forgery_of_zero_update_is_the_honest_proof():
    # honest and forged proofs come from one prover: with zero
    # projections the claims coincide, and so do the bytes
    params = _params(k=4, d=8)
    u = [0] * params.d
    gens, matrix, h, y, z, r, _ = _instance(params, u)
    honest = gen_integrity_proof(
        params, gens, matrix, h, z, y, r, u, 3, 2, DeterministicRng(b"same")
    )
    forged = forge_integrity_proof(
        params, gens, matrix, h, z, y, r, u, 3, 2, DeterministicRng(b"same")
    )
    assert forged.to_bytes() == honest.to_bytes()


@pytest.mark.parametrize("k,d", [(4, 8), (16, 32), (64, 128)])
def test_completeness_across_scales(k, d):
    params = _params(k=k, d=d)
    outer = np.random.default_rng(k * 1000 + d)
    for trial in range(8):
        c = 0.05 + 0.85 * outer.random()
        u = _scaled_update(params, c, outer)
        seed = f"scale/{k}/{d}/{trial}".encode()
        gens, matrix, h, y, z, r, rng = _instance(params, u, seed=seed)
        try:
            proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
        except BoundExceededError:
            # the probabilistic check may fire near c ~ 0.9; plaintext
            # path must agree that it fired
            assert not plaintext_check(u, matrix, b0=params.b0)
            continue
        assert plaintext_check(u, matrix, b0=params.b0)
        ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng)
        assert ok and reason is None


def test_serialization_roundtrip():
    params = _params(k=4, d=8)
    u = [2, -1, 0, 3, 0, 0, -2, 1]
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    from savi.zkp import IntegrityProof

    back = IntegrityProof.from_bytes(proof.to_bytes(), backend)
    assert back == proof
    ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, back, 1, 1, rng)
    assert ok
    with pytest.raises(ValueError):
        IntegrityProof.from_bytes(proof.to_bytes() + b"\x00", backend)


def test_forged_proof_for_oversized_update_rejected():
    # F(3) at k=64 is ~1e-58: the bound check always fires, the cheater
    # must forge, and the forgery dies on the square proof -- the one
    # equation that ties o_prime to e_star's openings (at savi/v7 it died
    # on the well-formedness proof, which tied them to o's).
    params = _params(k=64, d=32)
    outer = np.random.default_rng(99)
    for trial in range(10):
        u = _scaled_update(params, 3.0, outer)
        seed = f"forge/{trial}".encode()
        gens, matrix, h, y, z, r, rng = _instance(params, u, seed=seed)
        with pytest.raises(BoundExceededError):
            gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
        forged = forge_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
        ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, forged, 1, 1, rng)
        assert (ok, reason) == (False, "square")


def test_zkp_agrees_with_plaintext_near_boundary():
    # straddle the threshold: whether gen raises must match the exact
    # integer verdict computed by the numpy reference path.  The 50/50
    # point sits near c ~ 2.4 here because b0 is the 1-2^-16 quantile,
    # far above the typical chi-square draw.
    params = _params(k=16, d=32)
    outer = np.random.default_rng(123)
    raised, passed = 0, 0
    for trial in range(40):
        c = 1.9 + 1.0 * outer.random()
        u = _scaled_update(params, c, outer)
        seed = f"boundary/{trial}".encode()
        gens, matrix, h, y, z, r, rng = _instance(params, u, seed=seed)
        reference = plaintext_check(u, matrix, b0=params.b0)
        try:
            proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
        except BoundExceededError:
            raised += 1
            assert not reference
            continue
        passed += 1
        assert reference
        ok, _ = ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng)
        assert ok
    # the band genuinely straddles the threshold
    assert raised >= 3 and passed >= 3


def test_b0_matches_norm_scaling():
    # b0 grows ~ quadratically in B (the quantization slack breaks
    # exactness, so compare against the closed form directly)
    p1 = _params(k=8, d=16, B=2.0)
    p2 = _params(k=8, d=16, B=8.0)
    ratio = p2.b0 / p1.b0
    expected = (p2.b_enc / p1.b_enc) ** 2
    # ceil() on values ~1e6 leaves a relative wobble of ~1e-6
    assert math.isclose(ratio, expected, rel_tol=1e-5)


def test_extreme_projections_at_the_integrity_shift():
    # a claim at either end that B0 allows (x^2 <= B0 at index 0, others
    # 0) passes every per-client check: e_star is built on the claims, so
    # only the set's consistency check could object.  At savi/v6 this
    # pinned the shifted range proof on x + 2^(b_ip-1), which the proof of
    # smallness replaced.
    params = _params(k=4, d=8)
    gens, matrix, h, y, z, r, rng = _instance(params, [0] * params.d)
    v0 = matrix.row_inner([0] * params.d)[0]
    root = math.isqrt(params.b0)
    for x in (root, -root):
        claims = [x] + [0] * (params.k - 1)
        proof = integrity._prove(
            params, gens, matrix, h, z, y, r, [v0] + claims, claims, 1, 1, rng
        )
        assert max(abs(a) for a in integrity._unpack(params, proof.z)) <= params.z_bound
        weights = DeterministicRng(b"extremes")
        small, mu = integrity._cheap_checks(params, gens, matrix, h, z, y, proof, 1, 1, weights)
        assert ver_range_proof(gens, [small, mu], weights), x


def _honest_proof(params, seed):
    u = _scaled_update(params, 0.5, np.random.default_rng(seed))
    gens, matrix, h, y, z, r, rng = _instance(params, u, seed=f"edge/{seed}".encode())
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    return proof, (gens, matrix, h, z, y)


def test_challenge_rows_bind_the_claims():
    # R is drawn after e_star is absorbed, so a prover cannot choose its
    # claims against a known R: any one of its points changed changes R
    params = _params(k=4, d=8)
    proof, (gens, matrix, h, z, y) = _honest_proof(params, 0)

    def rows(e_star):
        tr = integrity._transcript(params, matrix, 1, 1, y, z, e_star)
        return integrity._challenge_rows(tr, proof.masks, params.k)

    first = rows(proof.e_star)
    points = proof.e_star
    for t in range(len(points)):
        assert rows(points[:t] + (points[t] + gens.g,) + points[t + 1:]) != first, t


def test_answers_pack_at_the_width_of_2t():
    # each z_j + T in w = (2T).bit_length() bits: -T and T are the
    # window's ends, the 128 answers fill 16 w bytes, and the field can
    # hold values above T (up to 2^w - 1 - T) but none below -T
    params = _params(k=4, d=8)
    bound, width = params.z_bound, params.z_width
    ends = [-bound, bound, 0, 1 - bound] * (LAMBDA // 4)
    raw = integrity._pack(params, ends)
    assert len(raw) == 16 * width
    assert integrity._unpack(params, raw) == ends
    assert integrity._unpack(params, bytes(len(raw))) == [-bound] * LAMBDA
    assert integrity._unpack(params, b"\xff" * len(raw)) == [(1 << width) - 1 - bound] * LAMBDA


@pytest.mark.parametrize("sign", [1, -1])
def test_answers_at_the_window_edge_pass_and_one_past_fail(sign, monkeypatch):
    # the verifier takes |z_j| <= T and nothing more.  T is moved to the
    # largest |z_j| of an honest proof whose extreme answer has the given
    # sign: there every answer passes, with one at +-T.  At T - 1 that
    # answer is one past the window: T + 1 packs, and is named range_ip;
    # -(T + 1) has no packing, as the least packed answer is -T.  T is not
    # in the transcript, so the proof's other checks still hold.
    params = _params(k=4, d=8)
    proof, (gens, matrix, h, z, y) = next(
        (p, inst)
        for p, inst in (_honest_proof(params, seed) for seed in range(40))
        if sign * max(integrity._unpack(params, p.z), key=abs) > 0
    )
    answers = integrity._unpack(params, proof.z)
    edge = max(abs(a) for a in answers)
    assert sign * edge in answers

    def verdict(bound):
        monkeypatch.setattr(type(params), "z_bound", property(lambda self: bound))
        moved = IntegrityProof.from_bytes(
            dataclasses.replace(proof, z=integrity._pack(params, answers)).to_bytes(), gens.backend
        )
        return ver_integrity_proof(params, gens, matrix, h, z, y, moved, 1, 1, DeterministicRng(b"e"))

    assert verdict(edge) == (True, None)
    if sign > 0:
        assert verdict(edge - 1) == (False, "range_ip")
    else:
        monkeypatch.setattr(type(params), "z_bound", property(lambda self: edge - 1))
        assert min(integrity._unpack(params, bytes(16 * params.z_width))) == 1 - edge


def _cheater_rejected(params, gens, matrix, h, y, z, r, u, claims, rng, monkeypatch):
    """A cheater's proof of ``claims``, with the slack proof's range
    guard stripped (values taken mod p, then cut to the proof's width),
    as the honest prover makes it: it is named "range_ip" after a trip
    through the wire, and only the proof of smallness catches it."""
    stripped, rows = integrity.gen_range_proof, integrity._challenge_rows

    def unguarded(gens, n_bits, values, *rest):
        return stripped(gens, n_bits, [x % Q % (1 << n_bits) for x in values], *rest)

    monkeypatch.setattr(integrity, "gen_range_proof", unguarded)
    tries = []
    monkeypatch.setattr(integrity, "_challenge_rows", lambda *a: tries.append(1) or rows(*a))
    proof = integrity._prove(
        params, gens, matrix, h, z, y, r, matrix.row_inner(u), claims, 1, 1, rng
    )
    # its answers never fall in the window: the prover gives up and sends
    # its last try cut into the window, which encodes and fails the link
    assert len(tries) == MAX_TRIES
    proof = IntegrityProof.from_bytes(proof.to_bytes(), gens.backend)
    assert ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng) == (
        False, "range_ip"
    )
    weights = DeterministicRng(b"cheater")
    small, mu = integrity._cheap_checks(params, gens, matrix, h, z, y, proof, 1, 1, weights)
    assert ver_range_proof(gens, [mu], weights)
    assert not ver_range_proof(gens, [small], weights)


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_square_root_of_minus_one_cheater_is_rejected(backend_name, monkeypatch):
    # u = i·s with i² ≡ -1 mod p makes each v_t = i·<a_t, s> and the sum
    # of squares -S, so the slack B0 + S is small and its proof honest;
    # only the proof of smallness can catch the cheater
    params = _params(k=4, d=16)
    s = [3, -1, 2, 0] * 4
    i = next(x for x in (pow(a, (Q - 1) // 4, Q) for a in range(2, 100)) if x * x % Q == Q - 1)
    u = [i * x % Q for x in s]
    gens, matrix, h, y, z, r, rng = _instance(params, u, b=make_backend(backend_name))
    claims = [i * x % Q for x in matrix.row_inner(s)[1:]]
    _cheater_rejected(params, gens, matrix, h, y, z, r, u, claims, rng, monkeypatch)


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_half_cheater_is_rejected(backend_name, monkeypatch):
    # u = 2⁻¹·w mod p makes each v_t = 2⁻¹·<a_t, w>: small where <a_t, w>
    # is even, near p/2 where it is odd.  With a positive multiple of 4
    # odd <a_t, w>, S = sum <a_t, w>² ≡ 0 mod 4, so the sum of squares
    # 4⁻¹·S is the integer S/4, the slack B0 - S/4 is in range and its proof
    # honest; only the proof of smallness, whose binary challenges make
    # each extracted v_t an integer, can catch the cheater
    params = _params(k=4, d=16)
    matrix = sample_matrix(b"itest", params.k, params.d, params.M)  # as _instance draws it

    def odd_projections(w):
        return sum(x % 2 for x in matrix.row_inner(w)[1:])

    w = next(
        w
        for w in ([int(x) for x in np.random.default_rng(seed).integers(-2, 3, params.d)]
                  for seed in range(1000))
        if odd_projections(w) and odd_projections(w) % 4 == 0
    )
    assert sum(x * x for x in matrix.row_inner(w)[1:]) // 4 <= params.b0
    half = pow(2, -1, Q)
    u = [half * x % Q for x in w]
    gens, matrix, h, y, z, r, rng = _instance(params, u, b=make_backend(backend_name))
    claims = [half * x % Q for x in matrix.row_inner(w)[1:]]
    _cheater_rejected(params, gens, matrix, h, y, z, r, u, claims, rng, monkeypatch)


def _smallness_tries(params, gens, claims, seed, monkeypatch):
    rows = integrity._challenge_rows
    tries = []
    monkeypatch.setattr(integrity, "_challenge_rows", lambda *a: tries.append(1) or rows(*a))
    integrity._smallness(params, gens, claims, DeterministicRng(seed), Transcript("tries"))
    monkeypatch.setattr(integrity, "_challenge_rows", rows)
    return len(tries)


def test_mean_tries_near_one_over_0_61(monkeypatch):
    # each row passes with probability (2T + 1)/(2T + 2W + 1), about
    # 1/(1 + 2^-8), so all 128 with about 0.61: 1/0.61 tries on average
    params = _params(k=4, d=8)
    gens, matrix, *_ = _instance(params, [0] * params.d)
    u = _scaled_update(params, 0.9, np.random.default_rng(3))
    claims = matrix.row_inner(u)[1:]
    tries = [_smallness_tries(params, gens, claims, f"tries/{i}", monkeypatch) for i in range(200)]
    assert abs(sum(tries) / len(tries) * 0.61 - 1) <= 0.15
    assert max(tries) < MAX_TRIES


def test_smallness_prover_cost_closed_form(monkeypatch):
    # each try commits to the LAMBDA masks and sigma in one multiexp:
    # LAMBDA + 1 muls and LAMBDA additions.  (The link's announcement in
    # the well-formedness proof is one more multiexp of that shape.)
    params = _params(k=4, d=8)
    gens, matrix, h, y, z, r, rng = _instance(params, [1, 0, -2, 1, 0, 0, 3, -1])
    claims = matrix.row_inner([1, 0, -2, 1, 0, 0, 3, -1])[1:]
    for seed in range(4):
        tries = _smallness_tries(params, gens, claims, f"cost/{seed}", monkeypatch)
        before = backend.counter.snapshot()
        integrity._smallness(params, gens, claims, DeterministicRng(f"cost/{seed}"), Transcript("tries"))
        after = backend.counter.snapshot()
        assert (after["mul"] - before["mul"], after["add"] - before["add"]) == (
            tries * (LAMBDA + 1), tries * LAMBDA
        )


class _Draws:
    """An rng that hands out the given masks and scalars in order."""

    def __init__(self, masks, scalars):
        self._masks, self._scalars = iter(masks), iter(scalars)

    def below(self, n):
        return next(self._masks)

    def scalar(self):
        return next(self._scalars)


def test_zero_knowledge_blinds_are_live():
    # no soundness test catches a dropped blind: each mask y_j and sigma
    # must change Y, and each y_j its own z_j alone.  The zero claims keep
    # every z_j = y_j in the window, so the first try is sent.
    params = _params(k=4, d=8)
    gens, *_ = _instance(params, [0] * params.d)
    spread = params.z_bound + params.mask_slack
    rng = DeterministicRng(b"zk/masks")
    draws = [spread + rng.below(params.z_bound) for _ in range(LAMBDA)]

    def prove(masks, sigma):
        link, _, _ = integrity._smallness(
            params, gens, [0] * params.k, _Draws(masks, [sigma]), Transcript("zk")
        )
        return link.y_commit, list(link.z)

    y_commit, z = prove(draws, 7)
    assert z == [x - spread for x in draws]
    other_y, other_z = prove(draws, 8)
    assert other_y != y_commit and other_z == z
    for j in (0, 1, LAMBDA - 1):
        changed = draws[:j] + [draws[j] + 1] + draws[j + 1:]
        other_y, other_z = prove(changed, 7)
        assert other_y != y_commit
        assert [b - a for a, b in zip(z, other_z)] == [int(i == j) for i in range(LAMBDA)]


def _linear_holds(errors, calls):
    """A set holds when its clients' errors sum to 0, as a batch of
    linear checks does; ``calls`` records each set checked."""
    def holds(part):
        calls.append(part)
        return sum(errors[i] for i in part) == 0
    return holds


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
@settings(max_examples=60, deadline=None)
def test_failing_names_exactly_the_clients_that_fail_alone(errors):
    # errors of one sign cannot cancel, so a set fails exactly when it
    # holds a failing client, and bisection finds each of them
    ids = [i + 1 for i in range(len(errors))]
    by_id = dict(zip(ids, errors))
    calls = []
    assert integrity._failing(ids, _linear_holds(by_id, calls)) == [
        i for i in ids if by_id[i]
    ]
    # the tree of at most 2n - 1 sets behind "at most 4n subsets a round"
    assert len(calls) <= max(2 * len(ids) - 1, 0)


def test_failing_names_nobody_when_the_errors_cancel():
    calls = []
    holds = _linear_holds({1: 2, 2: 0, 3: -5, 4: 3, 5: 0}, calls)
    assert integrity._failing([1, 2, 3, 4, 5], holds) == []
    assert calls == [[1, 2, 3, 4, 5]]
