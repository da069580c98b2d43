import dataclasses
import math

import numpy as np
import pytest

from savi.commit import commit_update
from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.multiexp import multiexp
from savi.harness.attacks import forge_integrity_proof
from savi.rng import DeterministicRng
from savi.sampling import CheckParameters, SampleMatrix, plaintext_check, sample_matrix
from savi.zkp import (
    BoundExceededError,
    Transcript,
    gen_integrity_proof,
    gen_range_proof,
    range_terms,
    ver_integrity_proof,
    ver_integrity_proofs,
    ver_range_proof,
)
from savi.zkp import integrity
from savi.zkp.integrity import _shifted
from savi.zkp.vercrt import crt_weights
from sigma_reference import each_bump

Q = GROUP_ORDER

backend = make_backend("mock")


def _params(k, d, B=4.0):
    return CheckParameters.from_epsilon_log2(
        -16, n=2, m=0, d=d, k=k, M=16, B=B, b_ip=32, b_max=64,
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
        (dataclasses.replace(proof, o=proof.o + (g,)), "malformed"),
        (dataclasses.replace(proof, o_prime=proof.o_prime[:-1]), "malformed"),
        # e_star no longer matches the committed coordinates
        (
            dataclasses.replace(
                proof, e_star=(proof.e_star[0] + g,) + proof.e_star[1:]
            ),
            "consistency",
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
                    proof.tau, s1=tuple((x + 1) % Q for x in proof.tau.s1)
                ),
            ),
            "square",
        ),
        (
            dataclasses.replace(
                proof,
                sigma=dataclasses.replace(
                    proof.sigma, a=((proof.sigma.a[0] + 1) % Q,) + proof.sigma.a[1:]
                ),
            ),
            "range_ip",
        ),
        (
            dataclasses.replace(
                proof,
                mu=dataclasses.replace(proof.mu, b=((proof.mu.b[0] + 1) % Q,) + proof.mu.b[1:]),
            ),
            "range_sum",
        ),
    ]
    for bad, expected in cases:
        ok, reason = verdict(bad)
        assert not ok
        assert reason == expected, f"expected {expected}, got {reason}"

    # commitments swapped under the prover's feet -> consistency
    y_swapped = [y[1], y[0]] + list(y[2:])
    ok, reason = verdict(proof, y_=y_swapped)
    assert (ok, reason) == (False, "consistency")

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
    # rho: c, y, k+1 entries of y_vec and k of y_star; tau: c and 3k
    assert len(tampered) == (2 * params.k + 3) + (1 + 3 * params.k)
    for bad, label in tampered:
        verdict = ver_integrity_proof(params, gens, matrix, h, z, y, bad, 1, 1, rng)
        assert verdict == (False, label)


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
        proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, client_id, rng)
        if client_id in (2, 5):
            e_star = (proof.e_star[0],) + (proof.e_star[1] + gens.g,) + proof.e_star[2:]
            proof = dataclasses.replace(proof, e_star=e_star)
        proofs[client_id] = (z, y, proof)
    calls = []
    combine = SampleMatrix.weighted_combination

    def spy(matrix, weights):
        calls.append(len(weights))
        return combine(matrix, weights)

    monkeypatch.setattr(SampleMatrix, "weighted_combination", spy)
    verdicts = ver_integrity_proofs(params, gens, matrix, h, proofs, 1, DeterministicRng(b"v"))
    assert verdicts == {1: None, 2: "consistency", 3: None, 4: None, 5: "consistency"}
    assert calls == [params.k + 1]


def test_tampering_o_flips_wellformed_then_square():
    # o appears in both rho and tau; rho is checked first
    params = _params(k=4, d=8)
    u = [1, 0, -2, 1, 0, 0, 3, -1]
    gens, matrix, h, y, z, r, rng = _instance(params, u)
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    bad_o = dataclasses.replace(proof, o=(proof.o[0] + gens.g,) + proof.o[1:])
    ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, bad_o, 1, 1, rng)
    assert (ok, reason) == (False, "wellformed")
    bad_op = dataclasses.replace(
        proof, o_prime=(proof.o_prime[0] + gens.g,) + proof.o_prime[1:]
    )
    ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, bad_op, 1, 1, rng)
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
    # must forge, and the forgery dies on the wellformed link -- the one
    # equation that ties e_star's openings to o's.
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
        assert (ok, reason) == (False, "wellformed")


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
    # the sigma range proof's statement as the integrity proof makes it,
    # at derived widths: claim x at index 0 (others 0) proves x + 2^(b_ip-1)
    # in [0, 2^b_ip) under 2^(b_ip-1) g + o_0
    params = CheckParameters.from_epsilon_log2(
        -16, n=2, m=0, d=8, k=4, M=16, B=4.0, frac_bits=2, b_coord=16
    )
    gens = GeneratorSet.derive(backend, params.d, params.range_slots)
    half = 1 << (params.b_ip - 1)
    root = math.isqrt(params.b0)
    rng = DeterministicRng(b"extremes")

    def statement(x):
        claims = [x] + [0] * (params.k - 1)
        values = [c + half for c in claims] + [0] * (params.k_padded - params.k)
        blinds = [rng.scalar() for _ in claims] + [0] * (params.k_padded - params.k)
        o = [multiexp([gens.g, gens.q], [c % Q, s]) for c, s in zip(claims, blinds)]
        return values, blinds, _shifted(params, gens, o)

    def verifies(proof, comms):
        terms = range_terms(gens, params.b_ip, comms, proof, Transcript("extremes"))
        return ver_range_proof(gens, [terms], rng)

    for x in (-half, half - 1, root, -root):
        values, blinds, comms = statement(x)
        proof = gen_range_proof(
            gens, params.b_ip, values, blinds, comms, rng, Transcript("extremes")
        )
        assert verifies(proof, comms), x
    for x in (half, -half - 1):
        values, blinds, comms = statement(x)
        with pytest.raises(ValueError):
            gen_range_proof(gens, params.b_ip, values, blinds, comms, rng, Transcript("extremes"))
        low_bits = [v % (1 << params.b_ip) for v in values]
        proof = gen_range_proof(
            gens, params.b_ip, low_bits, blinds, comms, rng, Transcript("extremes")
        )
        assert not verifies(proof, comms), x


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_square_root_of_minus_one_cheater_is_rejected(backend_name, monkeypatch):
    # u = i·s with i² ≡ -1 mod p makes each v_t = i·<a_t, s> and the sum
    # of squares -S, so the slack B0 + S is small and its proof honest;
    # only the projection range proof can catch the cheater
    params = _params(k=4, d=16)
    s = [3, -1, 2, 0] * 4
    i = next(x for x in (pow(a, (Q - 1) // 4, Q) for a in range(2, 100)) if x * x % Q == Q - 1)
    u = [i * x % Q for x in s]
    gens, matrix, h, y, z, r, rng = _instance(params, u, b=make_backend(backend_name))
    claims = [i * x % Q for x in matrix.row_inner(s)[1:]]
    stripped = integrity.gen_range_proof

    def unguarded(gens, n_bits, values, *rest):
        # the range guard an attacker strips: values taken mod p, then
        # cut to the proof's width
        return stripped(gens, n_bits, [x % Q % (1 << n_bits) for x in values], *rest)

    monkeypatch.setattr(integrity, "gen_range_proof", unguarded)
    proof = integrity._prove(
        params, gens, matrix, h, z, y, r, matrix.row_inner(u), claims, 1, 1, rng
    )
    assert ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng) == (
        False, "range_ip"
    )
    weights = DeterministicRng(b"i-s-cheater")
    crt = crt_weights(matrix, weights)
    sigma, mu = integrity._cheap_checks(params, gens, matrix, h, z, y, proof, 1, 1, crt, weights)
    assert ver_range_proof(gens, [mu], weights)
    assert not ver_range_proof(gens, [sigma], weights)
