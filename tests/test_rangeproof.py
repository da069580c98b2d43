import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.multiexp import multiexp
from savi.group.scalars import inv
from savi.rng import DeterministicRng
from savi.zkp import Transcript, gen_range_proof, range_terms, ver_range_proof
from savi.zkp.rangeproof import RangeProof, slot_shape

Q = GROUP_ORDER

backend = make_backend("mock")
GENS = GeneratorSet.derive(backend, 2, 64)  # up to 64 bit-slots
_WEIGHTS = DeterministicRng(b"rp-weights")  # the verifier's batch weights


def _commit(value, blind):
    return multiexp([GENS.g, GENS.q], [value % Q, blind % Q])


def _tr(context="range-test"):
    return Transcript(context)


def _prove(values, blinds, n_bits, context="range-test"):
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    return gen_range_proof(
        GENS, n_bits, values, blinds, comms, DeterministicRng(b"rp"), _tr(context)
    )


def test_value_zero_verifies():
    proof = _prove([0], [5], 8)
    assert ver_range_proof(GENS, [range_terms(GENS, 8, [_commit(0, 5)], proof, _tr())], _WEIGHTS)


def test_max_value_verifies():
    proof = _prove([255], [7], 8)
    assert ver_range_proof(GENS, [range_terms(GENS, 8, [_commit(255, 7)], proof, _tr())], _WEIGHTS)


def test_value_at_bound_refused_at_generation():
    with pytest.raises(ValueError):
        _prove([256], [7], 8)
    with pytest.raises(ValueError):
        _prove([-1], [7], 8)


def test_forged_commitment_off_by_2_to_b():
    # prover knows 3, presents the commitment shifted to 2^8 + 3
    blind = 11
    proof = _prove([3], [blind], 8)
    forged = _commit((1 << 8) + 3, blind)
    assert not ver_range_proof(GENS, [range_terms(GENS, 8, [forged], proof, _tr())], _WEIGHTS)


def test_aggregated_values():
    values = [0, 255, 17, 100]
    blinds = [1, 2, 3, 4]
    proof = _prove(values, blinds, 8)
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    assert ver_range_proof(GENS, [range_terms(GENS, 8, comms, proof, _tr())], _WEIGHTS)
    # swapping two commitments breaks it
    swapped = [comms[1], comms[0]] + comms[2:]
    assert not ver_range_proof(GENS, [range_terms(GENS, 8, swapped, proof, _tr())], _WEIGHTS)


def test_wider_range_16_bits():
    values = [65535, 0]
    blinds = [9, 10]
    proof = _prove(values, blinds, 16)
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    assert ver_range_proof(GENS, [range_terms(GENS, 16, comms, proof, _tr())], _WEIGHTS)


def test_mismatched_slot_count_rejected():
    with pytest.raises(ValueError):
        _prove([1, 2, 3], [1, 2, 3], 3)  # 9 slots: odd part 9 > 7
    with pytest.raises(ValueError):
        gen_range_proof(GENS, 8, [1], [2], [], DeterministicRng(b"rp"), _tr())


def test_tamper_matrix_every_component():
    values, blinds = [44, 200], [13, 14]
    proof = _prove(values, blinds, 8)
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    assert ver_range_proof(GENS, [range_terms(GENS, 8, comms, proof, _tr())], _WEIGHTS)

    def mutated(**kw):
        fields = {f: getattr(proof, f) for f in (
            "a_commit", "s_commit", "t1_commit", "t2_commit",
            "tau_x", "mu", "t_hat", "ls", "rs", "a", "b",
        )}
        fields.update(kw)
        return RangeProof(**fields)

    bads = [
        mutated(a_commit=proof.a_commit + GENS.g),
        mutated(s_commit=proof.s_commit + GENS.g),
        mutated(t1_commit=proof.t1_commit + GENS.g),
        mutated(t2_commit=proof.t2_commit + GENS.g),
        mutated(tau_x=(proof.tau_x + 1) % Q),
        mutated(mu=(proof.mu + 1) % Q),
        mutated(t_hat=(proof.t_hat + 1) % Q),
        mutated(ls=(proof.ls[0] + GENS.g,) + tuple(proof.ls[1:])),
        mutated(rs=tuple(proof.rs[:-1]) + (proof.rs[-1] + GENS.g,)),
        mutated(a=((proof.a[0] + 1) % Q,)),
        mutated(b=((proof.b[0] + 1) % Q,)),
    ]
    for bad in bads:
        assert not ver_range_proof(GENS, [range_terms(GENS, 8, comms, bad, _tr())], _WEIGHTS)


def test_label_domain_separation():
    # the proof's challenges bind everything the transcript held before it
    proof = _prove([9], [3], 8, context="alpha")
    comm = [_commit(9, 3)]
    assert ver_range_proof(GENS, [range_terms(GENS, 8, comm, proof, _tr("alpha"))], _WEIGHTS)
    assert not ver_range_proof(GENS, [range_terms(GENS, 8, comm, proof, _tr("beta"))], _WEIGHTS)
    prefixed = _tr("alpha")
    prefixed.absorb_u64("round", 2)
    assert not ver_range_proof(GENS, [range_terms(GENS, 8, comm, proof, prefixed)], _WEIGHTS)


def test_serialization_roundtrip():
    values, blinds = [250, 1], [21, 22]
    proof = _prove(values, blinds, 8)
    back = RangeProof.from_bytes(proof.to_bytes(), backend)
    assert back == proof
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    assert ver_range_proof(GENS, [range_terms(GENS, 8, comms, back, _tr())], _WEIGHTS)


def test_proof_size_logarithmic_in_slots():
    p8 = _prove([1], [2], 8)        # 8 slots  -> 3 folds
    p64 = _prove([1, 2, 3, 4], [1, 2, 3, 4], 16)  # 64 slots -> 6 folds
    assert len(p8.ls) == 3
    assert len(p64.ls) == 6
    # fold vectors grow by 3 entries while slot count grows 8x
    assert len(p64.to_bytes()) - len(p8.to_bytes()) == 6 * 32


def test_batch_weights_stop_errors_cancelling():
    # a+1 in one copy and a-1 in another cancel in an unweighted sum of
    # the two identities; each identity's own weight keeps both visible
    values, blinds = [5, 6], [7, 8]
    proof = _prove(values, blinds, 8)
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    up = RangeProof(**{**proof.__dict__, "a": ((proof.a[0] + 1) % Q,)})
    down = RangeProof(**{**proof.__dict__, "a": ((proof.a[0] - 1) % Q,)})
    batch = [range_terms(GENS, 8, comms, p, _tr()) for p in (up, down)]
    assert not ver_range_proof(GENS, batch, _WEIGHTS)
    honest = [range_terms(GENS, 8, comms, proof, _tr()) for _ in range(2)]
    assert ver_range_proof(GENS, honest, _WEIGHTS)


def test_batch_of_two_widths_verifies():
    # an 8-slot and a 32-slot proof share the first 8 G_i/H_i bases
    narrow = _prove([3], [4], 8)
    wide = _prove([1, 2], [5, 6], 16)
    statements = [
        range_terms(GENS, 8, [_commit(3, 4)], narrow, _tr()),
        range_terms(GENS, 16, [_commit(1, 5), _commit(2, 6)], wide, _tr()),
    ]
    assert ver_range_proof(GENS, statements, _WEIGHTS)
    assert ver_range_proof(GENS, [], _WEIGHTS)


def test_misshapen_proof_has_no_terms():
    proof = _prove([9], [3], 8)
    comm = [_commit(9, 3)]
    short = RangeProof(**{**proof.__dict__, "ls": proof.ls[:-1]})
    assert range_terms(GENS, 8, comm, short, _tr()) is None
    # 24 = 3 * 2^3 slots: three rounds, but final vectors of length 3
    assert range_terms(GENS, 8, comm * 3, proof, _tr()) is None
    assert range_terms(GENS, 9, comm, proof, _tr()) is None  # odd part 9
    assert range_terms(GENS, 128, comm, proof, _tr()) is None  # too few generators


# -- reference prover and verifier ----------------------------------------------


def _naive_msm(points, scalars):
    """sum s*P with one scalar multiplication per term, even for s = +-1."""
    acc = points[0].backend.identity()
    for pt, sc in zip(points, scalars):
        acc = acc + sc * pt
    return acc


def _ip(a, b):
    return sum(x * w for x, w in zip(a, b)) % Q


def _reference_prove(gens, n_bits, values, blinds, rng, tr):
    """The textbook prover: A with one mul per slot, H rescaled by y^-i,
    both bases folded explicitly in every round, the last one included,
    down to the odd length c of nm = c * 2^r."""
    m, nm = len(values), n_bits * len(values)
    g, q, u = gens.g, gens.q, gens.range_gens.u
    gs, hs = list(gens.range_gens.gs[:nm]), list(gens.range_gens.hs[:nm])
    commitments = [_naive_msm([g, q], [v, gamma]) for v, gamma in zip(values, blinds)]
    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", commitments)
    a_l = [(values[i // n_bits] >> (i % n_bits)) & 1 for i in range(nm)]
    a_r = [(bit - 1) % Q for bit in a_l]
    alpha = rng.scalar()
    a_commit = _naive_msm([q] + gs + hs, [alpha] + a_l + a_r)
    s_l = [rng.scalar() for _ in range(nm)]
    s_r = [rng.scalar() for _ in range(nm)]
    rho = rng.scalar()
    s_commit = _naive_msm([q] + gs + hs, [rho] + s_l + s_r)
    tr.absorb_point("A", a_commit)
    tr.absorb_point("S", s_commit)
    y, z = tr.nonzero_challenge("y"), tr.nonzero_challenge("z")
    y_pow = [pow(y, i, Q) for i in range(nm)]
    zz = [pow(z, 2 + j, Q) for j in range(m)]
    two = [zz[i // n_bits] * (1 << (i % n_bits)) for i in range(nm)]
    l0 = [(a_l[i] - z) % Q for i in range(nm)]
    r0 = [(y_pow[i] * (a_r[i] + z) + two[i]) % Q for i in range(nm)]
    r1 = [y_pow[i] * s_r[i] % Q for i in range(nm)]

    tau1, tau2 = rng.scalar(), rng.scalar()
    t1_commit = _naive_msm([g, q], [(_ip(l0, r1) + _ip(s_l, r0)) % Q, tau1])
    t2_commit = _naive_msm([g, q], [_ip(s_l, r1), tau2])
    tr.absorb_point("T1", t1_commit)
    tr.absorb_point("T2", t2_commit)
    x = tr.nonzero_challenge("x")
    a_cur = [(l0[i] + x * s_l[i]) % Q for i in range(nm)]
    b_cur = [(r0[i] + x * r1[i]) % Q for i in range(nm)]
    t_hat = _ip(a_cur, b_cur)
    tau_x = (tau2 * x * x + tau1 * x + sum(c * b for c, b in zip(zz, blinds))) % Q
    mu = (alpha + rho * x) % Q
    tr.absorb_scalar("tau_x", tau_x)
    tr.absorb_scalar("mu", mu)
    tr.absorb_scalar("t_hat", t_hat)
    u_pt = tr.nonzero_challenge("w") * u
    h_cur = [pow(inv(y), i, Q) * hs[i] for i in range(nm)]
    g_cur, ls, rs = gs, [], []
    while len(a_cur) % 2 == 0:
        half = len(a_cur) // 2
        ls.append(_naive_msm(
            g_cur[half:] + h_cur[:half] + [u_pt],
            a_cur[:half] + b_cur[half:] + [_ip(a_cur[:half], b_cur[half:])],
        ))
        rs.append(_naive_msm(
            g_cur[:half] + h_cur[half:] + [u_pt],
            a_cur[half:] + b_cur[:half] + [_ip(a_cur[half:], b_cur[:half])],
        ))
        tr.absorb_point("L", ls[-1])
        tr.absorb_point("R", rs[-1])
        c = tr.nonzero_challenge("x-fold")
        ci = inv(c)
        a_cur = [(a_cur[i] * c + a_cur[half + i] * ci) % Q for i in range(half)]
        b_cur = [(b_cur[i] * ci + b_cur[half + i] * c) % Q for i in range(half)]
        g_cur = [ci * g_cur[i] + c * g_cur[half + i] for i in range(half)]
        h_cur = [c * h_cur[i] + ci * h_cur[half + i] for i in range(half)]
    return RangeProof(
        a_commit, s_commit, t1_commit, t2_commit, tau_x, mu, t_hat,
        tuple(ls), tuple(rs), tuple(a_cur), tuple(b_cur),
    )


def _reference_verify(gens, n_bits, comms, proof, tr):
    """The textbook verifier: both identities as points, the bases folded
    explicitly down to the length of the final vectors."""
    m, nm = len(comms), n_bits * len(comms)
    g, q, rg = gens.g, gens.q, gens.range_gens
    tr.absorb_u64("bits", n_bits)
    tr.absorb_u64("values", m)
    tr.absorb_points("V", comms)
    tr.absorb_point("A", proof.a_commit)
    tr.absorb_point("S", proof.s_commit)
    y, z = tr.nonzero_challenge("y"), tr.nonzero_challenge("z")
    tr.absorb_point("T1", proof.t1_commit)
    tr.absorb_point("T2", proof.t2_commit)
    x = tr.nonzero_challenge("x")
    for label in ("tau_x", "mu", "t_hat"):
        tr.absorb_scalar(label, getattr(proof, label))
    u_pt = tr.nonzero_challenge("w") * rg.u
    y_pow = [pow(y, i, Q) for i in range(nm)]
    zz = [pow(z, 2 + j, Q) for j in range(m)]
    delta = ((z - z * z) * sum(y_pow) - z * sum(zz) * ((1 << n_bits) - 1)) % Q
    if _naive_msm([g, q], [proof.t_hat, proof.tau_x]) != _naive_msm(
        [g] + list(comms) + [proof.t1_commit, proof.t2_commit], [delta] + zz + [x, x * x]
    ):
        return False
    gs = list(rg.gs[:nm])
    hs = [inv(y_pow[i]) * rg.hs[i] for i in range(nm)]
    p_pt = _naive_msm(
        [proof.a_commit, proof.s_commit, q, u_pt] + gs + hs,
        [1, x, -proof.mu, proof.t_hat] + [-z] * nm
        + [z * y_pow[i] + zz[i // n_bits] * (1 << (i % n_bits)) for i in range(nm)],
    )
    for left, right in zip(proof.ls, proof.rs):
        tr.absorb_point("L", left)
        tr.absorb_point("R", right)
        c = tr.nonzero_challenge("x-fold")
        ci, half = inv(c), len(gs) // 2
        p_pt = c * c * left + p_pt + ci * ci * right
        gs = [ci * gs[i] + c * gs[half + i] for i in range(half)]
        hs = [c * hs[i] + ci * hs[half + i] for i in range(half)]
    if len(gs) != len(proof.a) or len(hs) != len(proof.b):
        return False
    return p_pt == _naive_msm(
        gs + hs + [u_pt], list(proof.a) + list(proof.b) + [_ip(proof.a, proof.b)]
    )


def _assert_matches_reference(gens, n_bits, values, seed):
    blinds = [DeterministicRng(seed).child(f"blind/{j}").scalar() for j in range(len(values))]
    comms = [_naive_msm([gens.g, gens.q], [v, b]) for v, b in zip(values, blinds)]
    fast = gen_range_proof(gens, n_bits, values, blinds, comms, DeterministicRng(seed), _tr())
    slow = _reference_prove(gens, n_bits, values, blinds, DeterministicRng(seed), _tr())
    assert fast.to_bytes() == slow.to_bytes()


@st.composite
def _statements(draw):
    # every width whose odd part is at most 7, times 1, 2 or 4 values
    n_bits = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12, 14, 16]))
    m = draw(st.sampled_from([1, 2, 4]))
    top = (1 << n_bits) - 1
    value = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
    return n_bits, draw(st.lists(value, min_size=m, max_size=m))


@settings(max_examples=40, deadline=None)
@given(_statements(), st.integers(0, 2**32))
@example((1, [1]), 0)  # nm = 1: no folding round
@example((1, [0]), 1)
@example((2, [3]), 2)  # nm = 2: one round, which is also the last
@example((1, [1, 0]), 3)
@example((16, [0, 65535, 0, 65535]), 4)  # 64 slots, both edge values
@example((7, [127]), 5)  # nm = 7: odd, no folding round
@example((3, [0, 7, 5, 1]), 6)  # nm = 12 = 3 * 2^2
@example((5, [31, 0]), 7)  # nm = 10 = 5 * 2
def test_prover_matches_explicit_folding_reference(statement, seed):
    n_bits, values = statement
    _assert_matches_reference(GENS, n_bits, values, seed)


@pytest.mark.parametrize(
    "n_bits,values", [(1, [1]), (2, [2]), (8, [0, 255, 7, 128]), (5, [17, 30]), (7, [99])]
)
def test_prover_matches_reference_on_ristretto255(gens_factory, n_bits, values):
    _assert_matches_reference(gens_factory("ristretto255", 1, 32), n_bits, values, 9)


# -- slot counts c * 2^r -------------------------------------------------------------

# (n_bits, m) for N = c * 2^r slots: every odd c up to 7, r in {0, 1, 3}
_SHAPES = [(c << r, 1) for c in (1, 3, 5, 7) for r in (0, 1)] + [
    (c << 2, 2) for c in (1, 3, 5, 7)
]


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_every_odd_part_proves_and_batch_equals_naive(gens_factory, backend_name):
    gens = gens_factory(backend_name, 1, 64)
    rng = DeterministicRng(b"shapes/" + backend_name.encode())
    statements, verdicts = [], []
    for n_bits, m in _SHAPES:
        values = [rng.below(1 << n_bits) for _ in range(m)]
        blinds = [rng.scalar() for _ in range(m)]
        comms = [multiexp([gens.g, gens.q], [v, b]) for v, b in zip(values, blinds)]
        proof = gen_range_proof(gens, n_bits, values, blinds, comms, rng, _tr())
        c, r = slot_shape(n_bits * m)
        assert len(proof.a) == len(proof.b) == c and len(proof.ls) == len(proof.rs) == r
        # a wrong commitment makes the same proof a false statement
        for vs in (comms, [comms[0] + gens.g] + comms[1:]):
            terms = range_terms(gens, n_bits, vs, proof, _tr())
            naive = _reference_verify(gens, n_bits, vs, proof, _tr())
            assert ver_range_proof(gens, [terms], rng) == naive == (vs is comms)
            statements.append(terms)
            verdicts.append(naive)
    honest = [t for t, ok in zip(statements, verdicts) if ok]
    assert ver_range_proof(gens, honest, rng)
    assert not ver_range_proof(gens, statements, rng)


def test_tampered_final_vectors_rejected():
    values, blinds = [3, 60, 17, 0], [1, 2, 3, 4]  # 4 * 6 = 24 = 3 * 2^3 slots
    proof = _prove(values, blinds, 6)
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    assert len(proof.a) == 3
    assert ver_range_proof(GENS, [range_terms(GENS, 6, comms, proof, _tr())], _WEIGHTS)
    for field in ("a", "b"):
        vec = getattr(proof, field)
        for t in range(len(vec)):
            bumped = vec[:t] + ((vec[t] + 1) % Q,) + vec[t + 1:]
            bad = RangeProof(**{**proof.__dict__, field: bumped})
            terms = range_terms(GENS, 6, comms, bad, _tr())
            assert not ver_range_proof(GENS, [terms], _WEIGHTS), (field, t)
        for resized in (vec[:-1], vec + (0,), vec[:1]):
            bad = RangeProof(**{**proof.__dict__, field: resized})
            assert range_terms(GENS, 6, comms, bad, _tr()) is None
