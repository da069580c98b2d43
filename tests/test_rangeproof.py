from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.generators import derive_generators
from savi.group.multiexp import multiexp, multiexps
from savi.rng import DeterministicRng
from savi.zkp import (
    Transcript, gen_prf_wf, gen_range_proof, range_terms, ver_prf_wf, ver_range_proof
)
from savi.zkp.rangeproof import RangeProof, slot_shape

from rangeproof_reference import ref_gen_range_proof, ref_ver_range_proof
from sigma_reference import make_link

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

    def bumped_point(field, j=None):
        old = getattr(proof, field)
        if j is None:
            return replace(proof, **{field: old + GENS.g})
        return replace(proof, **{field: old[:j] + (old[j] + GENS.g,) + old[j + 1:]})

    # every point and scalar the proof sends; the final vectors' entries
    # are bumped one by one in test_tampered_final_vectors_rejected
    bads = [bumped_point("a_commit"), bumped_point("a1_commit"), bumped_point("b1_commit")]
    bads += [bumped_point(f, j) for f in ("ls", "rs") for j in range(len(proof.ls))]
    bads += [
        replace(proof, delta=(proof.delta + 1) % Q),
        replace(proof, r=((proof.r[0] + 1) % Q,)),
        replace(proof, s=((proof.s[0] + 1) % Q,)),
    ]
    for bad in bads:
        assert not ver_range_proof(GENS, [range_terms(GENS, 8, comms, bad, _tr())], _WEIGHTS)
    # a resized vector is a misshapen proof
    for field in ("ls", "rs", "r", "s"):
        vec = getattr(proof, field)
        for resized in (vec[:-1], vec + vec[:1]):
            assert range_terms(GENS, 8, comms, replace(proof, **{field: resized}), _tr()) is None


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
    # A, A1, B1, delta, the counted runs r' and s' of length 1 and L and
    # R of length 3
    assert len(p8.to_bytes()) == 4 * 32 + 2 * (4 + 32) + 2 * (4 + 3 * 32) == 400


def test_batch_weights_stop_errors_cancelling():
    # a+1 in one copy and a-1 in another cancel in an unweighted sum of
    # the two identities; each identity's own weight keeps both visible
    values, blinds = [5, 6], [7, 8]
    proof = _prove(values, blinds, 8)
    comms = [_commit(v, b) for v, b in zip(values, blinds)]
    up = replace(proof, r=((proof.r[0] + 1) % Q,))
    down = replace(proof, r=((proof.r[0] - 1) % Q,))
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
    short = replace(proof, ls=proof.ls[:-1])
    assert range_terms(GENS, 8, comm, short, _tr()) is None
    # 24 = 3 * 2^3 slots: three rounds, but final vectors of length 3
    assert range_terms(GENS, 8, comm * 3, proof, _tr()) is None
    assert range_terms(GENS, 9, comm, proof, _tr()) is None  # odd part 9
    assert range_terms(GENS, 128, comm, proof, _tr()) is None  # too few generators


# -- the reference prover and verifier (rangeproof_reference.py) -------------------


def _assert_matches_reference(gens, n_bits, values, seed):
    blinds = [DeterministicRng(seed).child(f"blind/{j}").scalar() for j in range(len(values))]
    comms = [multiexp([gens.g, gens.q], [v, b]) for v, b in zip(values, blinds)]
    fast = gen_range_proof(gens, n_bits, values, blinds, comms, DeterministicRng(seed), _tr())
    slow = ref_gen_range_proof(gens, n_bits, values, blinds, DeterministicRng(seed), _tr())
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
        # byte for byte the textbook prover's proof, at every odd part
        _assert_matches_reference(gens, n_bits, values, f"{c}/{r}".encode())
        assert len(proof.r) == len(proof.s) == c and len(proof.ls) == len(proof.rs) == r
        # a wrong commitment makes the same proof a false statement
        for vs in (comms, [comms[0] + gens.g] + comms[1:]):
            terms = range_terms(gens, n_bits, vs, proof, _tr())
            naive = ref_ver_range_proof(gens, n_bits, vs, proof, _tr())
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
    assert len(proof.r) == 3
    assert ver_range_proof(GENS, [range_terms(GENS, 6, comms, proof, _tr())], _WEIGHTS)
    for field in ("r", "s"):
        vec = getattr(proof, field)
        for t in range(len(vec)):
            bumped = vec[:t] + ((vec[t] + 1) % Q,) + vec[t + 1:]
            terms = range_terms(GENS, 6, comms, replace(proof, **{field: bumped}), _tr())
            assert not ver_range_proof(GENS, [terms], _WEIGHTS), (field, t)
        for resized in (vec[:-1], vec + (0,), vec[:1]):
            assert range_terms(GENS, 6, comms, replace(proof, **{field: resized}), _tr()) is None


class _Draws:
    """An rng that hands out the given scalars in order, and no more."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def scalar(self):
        return next(self._draws)


@pytest.mark.parametrize("backend_name", ["mock", "ristretto255"])
def test_zero_knowledge_blinds_are_live(gens_factory, backend_name):
    # no soundness test catches a dropped blind, so each is checked here
    gens = gens_factory(backend_name, 1, 64)
    values, blinds = [5, 0, 63, 17], [1, 2, 3, 4]  # 24 = 3 * 2^3 slots
    comms = [multiexp([gens.g, gens.q], [v, b]) for v, b in zip(values, blinds)]

    def prove(rng):
        return gen_range_proof(gens, 6, values, blinds, comms, rng, _tr())

    # under two rng seeds, every point and scalar the proof sends differs
    one, two = prove(DeterministicRng(b"zk/1")), prove(DeterministicRng(b"zk/2"))
    sent = lambda p: [p.a_commit, *p.ls, *p.rs, p.a1_commit, p.b1_commit, *p.r, *p.s, p.delta]
    assert len(sent(one)) == 1 + 3 + 3 + 2 + 3 + 3 + 1
    assert all(first != second for first, second in zip(sent(one), sent(two)))

    # A seed changes every challenge, so it would not show one dropped
    # blind.  Change each draw alone instead: the point it blinds (alpha
    # A, d_L and d_R their round's L and R, r, s and delta A1, eta B1)
    # changes, and every point sent before it stays.
    points = lambda p: [p.a_commit, *(pt for lr in zip(p.ls, p.rs) for pt in lr),
                        p.a1_commit, p.b1_commit]
    rounds, c = 3, 3
    blinded = [0] + [1 + i for i in range(2 * rounds)] + [1 + 2 * rounds] * (2 * c + 1) + [
        2 + 2 * rounds
    ]
    rng = DeterministicRng(b"zk/draws")
    draws = [rng.scalar() for _ in blinded]
    base = points(prove(_Draws(draws)))
    for k, at in enumerate(blinded):
        changed = points(prove(_Draws(draws[:k] + [rng.scalar()] + draws[k + 1:])))
        assert changed[:at] == base[:at] and changed[at] != base[at], k


def _ops(fn):
    before = backend.counter.snapshot()
    out = fn()
    after = backend.counter.snapshot()
    return out, after["mul"] - before["mul"], after["add"] - before["add"]


@pytest.mark.parametrize("c", [1, 3, 5, 7])
@pytest.mark.parametrize("r", [0, 1, 3])
def test_prover_cost_closed_form(c, r):
    # A costs alpha q plus one addition per slot; a round of length n
    # costs 2n + 4 muls and 2n + 2 additions for L and R, and n of each for
    # the brackets; A1 and B1 cost 2c + 4 muls and 2c + 2 additions.  A
    # fold factor multiplied into the bases would cost n muls more a round.
    n = c << r
    rng = DeterministicRng(f"cost/{c}/{r}".encode())
    values, blinds = [rng.below(1 << n)], [rng.scalar()]
    comms = [_commit(values[0], blinds[0])]
    _, muls, adds = _ops(lambda: gen_range_proof(GENS, n, values, blinds, comms, rng, _tr()))
    assert (muls, adds) == (6 * n - 4 * c + 4 * r + 5, 7 * n - 4 * c + 2 * r + 2)


def test_batch_verifier_cost_pinned():
    # one multiexp over g, q, the widest proof's 2N bases and each proof's
    # A, A1, B1, L_j, R_j and values: 2 + 2N + sum(3 + 2r + m) muls
    rng = DeterministicRng(b"verify-cost")
    shapes = [(14, 4), (8, 1), (5, 2)]  # 56 = 7 * 2^3, 8 = 2^3, 10 = 5 * 2
    terms = []
    for n_bits, m in shapes:
        values = [rng.below(1 << n_bits) for _ in range(m)]
        blinds = [rng.scalar() for _ in range(m)]
        comms = [_commit(v, b) for v, b in zip(values, blinds)]
        proof = gen_range_proof(GENS, n_bits, values, blinds, comms, rng, _tr())
        terms.append(range_terms(GENS, n_bits, comms, proof, _tr()))
    ok, muls, adds = _ops(lambda: ver_range_proof(GENS, terms[:1], rng))
    assert ok and (muls, adds) == (127, 126) == (2 + 112 + 13, 127 - 1)
    ok, muls, adds = _ops(lambda: ver_range_proof(GENS, terms, rng))
    assert ok and (muls, adds) == (144, 143) == (2 + 112 + 13 + 10 + 7, 144 - 1)


def test_shared_free_point_costs_one_mul():
    # two proofs of one commitment share their value point V: the batch
    # merges it, so the second proof adds A, A1, B1 and its L_j, R_j
    # (3 + 2r muls at r = 3), and not V again
    rng = DeterministicRng(b"shared-point")
    comms = [_commit(200, 9)]
    proofs = [gen_range_proof(GENS, 8, [200], [9], comms, rng, _tr()) for _ in range(2)]
    terms = [range_terms(GENS, 8, comms, proof, _tr()) for proof in proofs]
    ok, muls, adds = _ops(lambda: ver_range_proof(GENS, terms[:1], rng))
    assert ok and (muls, adds) == (28, 27) == (2 + 16 + 3 + 6 + 1, 28 - 1)
    ok, muls, adds = _ops(lambda: ver_range_proof(GENS, terms, rng))
    assert ok and (muls, adds) == (37, 36) == (28 + 3 + 6, 37 - 1)


# -- the batch on plain term lists ---------------------------------------------------

_POOL = [
    backend.identity(),
    GENS.g,
    GENS.q,
    GENS.range_gens.gs[0],
    GENS.smallness[0],
    *derive_generators("batch-pool", 3, backend),
]
_SCALARS = st.one_of(st.sampled_from([0, 1, 2, Q - 1]), st.integers(0, Q - 1))


@st.composite
def _term_list(draw):
    """Terms over a small pool, so points repeat within a list and across
    lists, and, half the time, one more term that makes them sum to the
    identity point."""
    terms = draw(st.lists(st.tuples(st.sampled_from(_POOL), _SCALARS), max_size=6))
    if draw(st.booleans()):
        total = multiexps([terms], backend)[0]
        terms.append((total, Q - 1))
    return terms


@settings(max_examples=150, deadline=None)
@given(st.lists(_term_list(), max_size=5), st.binary(min_size=1, max_size=8))
def test_batch_equals_naive_on_term_lists(statements, seed):
    naive = all(multiexps([terms], backend)[0].is_identity() for terms in statements)
    assert ver_range_proof(GENS, statements, DeterministicRng(seed)) == naive


def _honest_link(rng):
    """The link terms of an honest well-formedness proof over the
    generator set's smallness generators."""
    k = 2
    h = list(derive_generators("link-h", k + 1, backend))
    r = rng.scalar()
    v = [rng.below(1000) for _ in range(k + 1)]
    z = r * GENS.g
    e = [multiexp([GENS.g, h_t], [v_t, r]) for h_t, v_t in zip(h, v)]
    link, sigma = make_link(rng, GENS.smallness, GENS.q, v[1:])
    proof = gen_prf_wf(GENS.g, GENS.q, h, z, e, link, r, v, sigma, rng, _tr("link"))
    terms = ver_prf_wf(GENS.g, GENS.q, h, z, e, link, proof, _tr("link"))
    assert terms is not None
    return terms


@pytest.mark.parametrize("field", ["a_commit", "ls", "b1_commit"])
@pytest.mark.parametrize("base", ["g", "q", "range_g0", "smallness0"])
def test_free_point_equal_to_a_shared_base_is_rejected(field, base):
    # a proof point replaced by a base the batch also holds merges into
    # that base's scalar; the verdict is still the textbook verifier's
    rng = DeterministicRng(b"collide")
    comms = [_commit(77, 3)]
    proof = gen_range_proof(GENS, 8, [77], [3], comms, rng, _tr())
    link = _honest_link(rng)
    assert ver_range_proof(GENS, [link, range_terms(GENS, 8, comms, proof, _tr())], rng)
    point = {
        "g": GENS.g, "q": GENS.q, "range_g0": GENS.range_gens.gs[0], "smallness0": GENS.smallness[0]
    }[base]
    value = (point,) + proof.ls[1:] if field == "ls" else point
    forged = replace(proof, **{field: value})
    terms = range_terms(GENS, 8, comms, forged, _tr())
    assert not ref_ver_range_proof(GENS, 8, comms, forged, _tr())
    assert not ver_range_proof(GENS, [terms], rng)
    assert not ver_range_proof(GENS, [link, terms], rng)
    assert not ver_range_proof(GENS, [terms, link], rng)
