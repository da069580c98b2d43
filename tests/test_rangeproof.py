import pytest

from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.multiexp import multiexp
from savi.rng import DeterministicRng
from savi.zkp import Transcript, gen_range_proof, range_terms, ver_range_proof
from savi.zkp.rangeproof import RangeProof

Q = GROUP_ORDER

backend = make_backend("mock")
GENS = GeneratorSet.derive(backend, 2, 64)  # up to 64 bit-slots
_WEIGHTS = DeterministicRng(b"rp-weights")  # the verifier's batch weights


def _commit(value, blind):
    return multiexp([GENS.g, GENS.q], [value % Q, blind % Q])


def _tr(context="range-test"):
    return Transcript(context)


def _prove(values, blinds, n_bits, context="range-test"):
    return gen_range_proof(
        GENS, n_bits, values, blinds, DeterministicRng(b"rp"), _tr(context)
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
        _prove([1, 2, 3], [1, 2, 3], 8)  # 24 slots: not a power of two


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
        mutated(a=(proof.a + 1) % Q),
        mutated(b=(proof.b + 1) % Q),
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
    up = RangeProof(**{**proof.__dict__, "a": (proof.a + 1) % Q})
    down = RangeProof(**{**proof.__dict__, "a": (proof.a - 1) % Q})
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
    assert range_terms(GENS, 8, comm * 3, proof, _tr()) is None  # 24 slots
    assert range_terms(GENS, 128, comm, proof, _tr()) is None  # too few generators
