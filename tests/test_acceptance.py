"""End-to-end acceptance checks for the whole package.

Each test is numbered and self-contained; together they cover exact
aggregation, honest completeness, the statistical model of the norm
check, proof soundness, batch-verifier equivalence, flag-rule safety,
asymptotic cost shape, and the secret-sharing layer.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from savi.commit import commit_update
from savi.group import GROUP_ORDER, GeneratorSet, make_backend
from savi.group.multiexp import multiexp
from savi.harness import (
    AttackSpec,
    desk_preset,
    measure_communication,
    probe_costs,
    run_simulation,
)
from savi.rng import DeterministicRng
from savi.sampling import (
    CheckParameters,
    compute_b0,
    max_expected_damage,
    pass_rate_F,
    plaintext_check,
    sample_matrix,
)
from savi.vsss import Share, combine_check_strings, ss_recover, ss_share, ss_verify
from savi.zkp import (
    Transcript,
    crt_weights,
    gen_integrity_proof,
    gen_prf_sq,
    gen_prf_wf,
    gen_range_proof,
    range_terms,
    ver_crt,
    ver_integrity_proof,
    ver_prf_sq,
    ver_range_proof,
)
from rangeproof_reference import ref_ver_range_proof
from sigma_reference import make_link, ref_ver_prf_sq, ref_ver_prf_wf, wf_holds

Q = GROUP_ORDER
mock = make_backend("mock")


# -- 1. exact aggregation ------------------------------------------------------


def test_criterion_01_exact_aggregation_200_runs():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    dims = [4, 4, 8, 8, 8, 16, 16, 32, 64, 128, 256]
    runs = 0
    for i in range(200):
        n = int(rng.integers(2, 11))
        d = int(dims[rng.integers(0, len(dims))])
        attack_run = i % 20 == 19
        if attack_run:
            n, m, k = max(n, 3), 1, 32
            attack = AttackSpec("oversized_norm", scale=6.0, malicious_ids=(2,))
        else:
            m, k = 0, int(rng.choice([2, 4, 8]))
            attack = AttackSpec()
        cfg = desk_preset(
            n=n, m=m, d=d, k=k, epsilon_log2=-14, M=16, B=1.0,
            b_max=32, frac_bits=2, b_coord=16,
            seed=10_000 + i, attack=attack,
        )
        rep = run_simulation(cfg)[0]
        assert rep.aggregate == rep.expected, f"run {i}: n={n} d={d} k={k}"
        assert rep.aggregate_ok
        if attack_run:
            assert 2 not in rep.honest
        else:
            assert rep.honest == tuple(range(1, n + 1))
        runs += 1
    assert runs == 200
    assert time.perf_counter() - started < 120.0


# -- 2. honest completeness ----------------------------------------------------


def test_criterion_02_honest_completeness_1000_rounds():
    # epsilon = 2^-14 < 1e-4; honest norms <= B by construction.
    # 2000 proofs at worst-case failure 2^-14 each: expected < 0.13
    # failures if every norm sat exactly at B; the uniform-norm inputs
    # sit far below that, so a single exclusion means a real bug.
    from savi.harness.simulate import Simulation

    cfg = desk_preset(
        n=2, m=0, d=4, k=2, epsilon_log2=-14, M=16, B=1.0,
        b_max=32, frac_bits=2, b_coord=16, seed=271828,
    )
    sim = Simulation(cfg)
    for round_no in range(1, 1001):
        rep = sim.run_round(round_no)
        assert rep.excluded == {}, f"round {round_no}: {rep.excluded}"
        assert rep.honest_dropouts == ()
        assert rep.honest == (1, 2)
        assert rep.aggregate == rep.expected


# -- 3. pass-rate curve --------------------------------------------------------


@pytest.mark.parametrize("k", [256, 1000])
def test_criterion_03_pass_rate_curve(k):
    # empirical pass fraction of a norm-c*B update vs pass_rate_F, using
    # the plaintext check (the ZK path's agreement with it is pinned in
    # test_integrity).  One matrix per trial, reused across the c grid.
    d, M, eps = 64, 1 << 24, 2.0**-128
    b_enc = 1 << 20
    b0 = compute_b0(b_enc, M, k, d, eps)
    trials = 1000
    cs = (1.1, 1.3, 1.5, 2.0)
    passes = {c: 0 for c in cs}
    for i in range(trials):
        matrix = sample_matrix(f"curve/{k}/{i}".encode(), k, d, M)
        col = matrix.rows[:, 0].astype(np.int64)
        for c in cs:
            # axis-aligned update of integer norm round(c * b_enc):
            # projections reduce to the first matrix column
            u0 = round(c * b_enc)
            total = int(np.sum((col * u0).astype(object) ** 2))
            passes[c] += total <= b0
    for c in cs:
        f = pass_rate_F(c, k, eps, d, M)
        sigma = math.sqrt(max(f * (1 - f), 1e-12) / trials)
        observed = passes[c] / trials
        assert abs(observed - f) <= 3 * sigma + 2e-3, (
            f"k={k} c={c}: observed {observed}, F {f}"
        )


@pytest.mark.parametrize("k", [256, 1000])
def test_pass_rate_curve_at_derived_m(k):
    # criterion 3's check at the M that CheckParameters derives (2^10 for
    # both k), where the rounding term r = rho(k)/(2M), with
    # rho(k) = sqrt(k + 2 sqrt(kx) + 2x) and x = 128 ln 2, is 0.52 and 0.51
    # of the most the rule allows, 2^-10 sqrt(gamma); criterion 3's
    # M = 2^24 makes it under 2^-12 of that.  (With r = sqrt(kd)/(2M), M
    # was 2^12 and r 0.62 and 0.77 of the most.)  B0 counts r once,
    # pass_rate_F 1 + c times, so F bounds the pass rate from above and
    # the rate B0 sets is the chi-square CDF at (sqrt(gamma) + r)^2 / c^2.
    # At k=1000, c=1.3 the two are 0.588 and 0.576 (0.594 with r taken 3
    # times; 0.607 and 0.581 at 2^12), further apart than the 3 sigma of
    # 1,000 trials, so F is checked only as a bound here.
    d, eps = 64, 2.0**-128
    params = CheckParameters(n=1, m=0, d=d, k=k, epsilon=eps, B=1.0)
    M = params.M
    assert M == 1 << 10
    x = 128 * math.log(2)
    r = math.sqrt(k + 2 * math.sqrt(k * x) + 2 * x) / (2 * M)
    b_enc = 1 << 20
    b0 = compute_b0(b_enc, M, k, d, eps)
    trials = 1000
    cs = (1.1, 1.3, 1.5, 2.0)
    passes = {c: 0 for c in cs}
    for i in range(trials):
        matrix = sample_matrix(f"derived-m/{k}/{i}".encode(), k, d, M)
        col = matrix.rows[:, 0].astype(np.int64)
        for c in cs:
            total = int(np.sum((col * round(c * b_enc)).astype(object) ** 2))
            passes[c] += total <= b0
    for c in cs:
        f = pass_rate_F(c, k, eps, d, M)
        rate = float(stats.chi2.cdf((math.sqrt(params.gamma) + r) ** 2 / (c * c), k))
        sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
        observed = passes[c] / trials
        assert abs(observed - rate) <= 3 * sigma + 2e-3, (
            f"k={k} c={c} M={M}: observed {observed}, rate {rate}"
        )
        assert observed <= f + 3 * sigma + 2e-3, f"k={k} c={c}: {observed} above F {f}"


# -- 4. damage ratios ----------------------------------------------------------


def test_criterion_04_damage_ratios():
    started = time.perf_counter()
    expected = {1000: 1.24, 3000: 1.13, 9000: 1.08}
    for k, target in expected.items():
        _, peak = max_expected_damage(k, 2.0**-128, 10**6, 1 << 24)
        assert abs(peak - target) <= 0.02, f"k={k}: {peak}"
    assert time.perf_counter() - started < 10.0


# -- 5. qualitative F thresholds -------------------------------------------------


def test_criterion_05_pass_rate_thresholds():
    k, eps, d, M = 1000, 2.0**-128, 10**6, 1 << 24
    assert pass_rate_F(1.2, k, eps, d, M) >= 0.99
    assert pass_rate_F(1.4, k, eps, d, M) <= 0.01


# -- 6. ZKP round-trip and tamper matrix -----------------------------------------


def _integrity_instance(params, u, seed):
    gens = GeneratorSet.derive(mock, params.d, params.range_slots)
    matrix = sample_matrix(seed, params.k, params.d, params.M)
    rows = [[a % Q for a in matrix.a0]] + [
        [int(x) % Q for x in row] for row in matrix.rows
    ]
    h = [multiexp(gens.w, row) for row in rows]
    rng = DeterministicRng(seed + b"/c")
    r = rng.scalar()
    y, z = commit_update(u, r, gens), r * gens.g
    proof = gen_integrity_proof(params, gens, matrix, h, z, y, r, u, 1, 1, rng)
    return gens, matrix, h, y, z, proof, rng


def _mutations(proof, g):
    rep = dataclasses.replace
    return [
        rep(proof, e_star=(proof.e_star[0] + g,) + proof.e_star[1:]),
        rep(proof, e_star=proof.e_star[:-1] + (proof.e_star[-1] + g,)),
        # one commitment to the squares (at savi/v7, o and o' bumped here)
        rep(proof, o_prime=proof.o_prime + g),
        rep(proof, rho=rep(proof.rho, y=(proof.rho.y + 1) % Q)),
        rep(proof, rho=rep(proof.rho, c=(proof.rho.c + 1) % Q)),
        rep(proof, tau=rep(proof.tau, c=(proof.tau.c + 1) % Q)),
        rep(proof, tau=rep(proof.tau, y_w=((proof.tau.y_w[0] + 1) % Q,) + proof.tau.y_w[1:])),
        # the proof of smallness (at savi/v6, a bumped sigma range proof)
        rep(proof, masks=proof.masks + g),
        rep(proof, rho=rep(proof.rho, y_sigma=(proof.rho.y_sigma + 1) % Q)),
        rep(proof, mu=rep(proof.mu, b1_commit=proof.mu.b1_commit + g)),
    ]


def test_criterion_06_zkp_roundtrip_and_tamper_matrix():
    params = CheckParameters.from_epsilon_log2(
        -16, n=2, m=0, d=8, k=4, M=16, B=4.0,
        b_max=32, frac_bits=2, b_coord=16,
    )
    outer = np.random.default_rng(606)
    honest_ok = 0
    rejected = 0
    total_cases = 0
    for i in range(104):
        direction = outer.standard_normal(params.d)
        direction /= np.linalg.norm(direction)
        target = 0.5 * params.B * (1 << params.frac_bits)
        u = [int(round(x * target)) for x in direction]
        gens, matrix, h, y, z, proof, rng = _integrity_instance(
            params, u, seed=f"tamper/{i}".encode()
        )
        ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, proof, 1, 1, rng)
        assert ok and reason is None
        honest_ok += 1
        for bad in _mutations(proof, gens.g):
            ok, reason = ver_integrity_proof(params, gens, matrix, h, z, y, bad, 1, 1, rng)
            assert not ok and reason is not None
            rejected += 1
            total_cases += 1
        # commitment-side flips count too: y and z are proof inputs
        y_bad = [y[0] + gens.g] + list(y[1:])
        ok, _ = ver_integrity_proof(params, gens, matrix, h, z, y_bad, proof, 1, 1, rng)
        assert not ok
        rejected += 1
        total_cases += 1
    assert honest_ok == 104  # 100% of honest proofs verified
    assert rejected == total_cases >= 1000  # 100% rejection over the matrix


# -- 7. batch-verifier equivalence ------------------------------------------------


def test_criterion_07_batch_equals_naive():
    gens = GeneratorSet.derive(mock, 6, 4)
    g, q = gens.g, gens.q
    root = DeterministicRng(b"batch-acceptance")
    k, d = 3, 6

    sq_agree = wf_agree = crt_agree = 0
    range_gens = GeneratorSet.derive(mock, 1, 32)
    range_batch = []
    for i in range(100):
        rng = root.child(f"i/{i}")
        tamper = i % 3 == 1

        def tr():  # prover, batch and naive verifier replay one transcript state
            return Transcript(f"b7/{i}")

        # the projection commitments of one update, which both sigma
        # proofs are about
        matrix = sample_matrix(f"b7/{i}".encode(), k, d, 1 << 10)
        rows = [[a % Q for a in matrix.a0]] + [
            [int(x) % Q for x in row] for row in matrix.rows
        ]
        h = [multiexp(gens.w, row) for row in rows]
        r = rng.scalar()
        u = [rng.scalar() % 7 for _ in range(d)]
        vm = matrix.row_inner(u)
        squares = sum(x * x for x in vm[1:])
        vm = [vm[0]] + [x % Q for x in vm[1:]]
        e = [multiexp([g, h[t]], [vm[t], r]) for t in range(k + 1)]

        # square proof instance
        x_blind = rng.scalar()
        o_p = multiexp([g, q], [squares % Q, x_blind])
        w = [x * r % Q for x in vm[1:]]
        tau = gen_prf_sq(g, q, h[1:], e[1:], o_p, r, vm[1:], w, x_blind, rng, tr())
        if tamper:
            tau = dataclasses.replace(tau, y_w=((tau.y_w[0] + 1) % Q,) + tau.y_w[1:])
        assert ver_prf_sq(g, q, h[1:], e[1:], o_p, tau, tr()) == ref_ver_prf_sq(
            g, q, h[1:], e[1:], o_p, tau, tr()
        ) == (not tamper)
        sq_agree += 1

        # wellformed proof instance
        link, sigma = make_link(rng, gens.smallness, q, vm[1:])
        rho = gen_prf_wf(g, q, h, z := r * g, e, link, r, vm, sigma, rng, tr())
        if tamper:
            field = ("y", "y_sigma")[(i // 3) % 2]
            rho = dataclasses.replace(rho, **{field: (getattr(rho, field) + 1) % Q})
        assert wf_holds(g, q, h, z, e, link, rho, tr()) == ref_ver_prf_wf(
            g, q, h, z, e, link, rho, tr()
        ) == (not tamper)
        wf_agree += 1

        # consistency batch
        claimed = [multiexp(gens.w, row) for row in rows]
        if tamper:
            claimed[1] = claimed[1] + g
        naive = all(
            claimed[t] == multiexp(gens.w, rows[t]) for t in range(k + 1)
        )
        assert ver_crt(gens.w, claimed, *crt_weights(matrix, rng)) == naive
        crt_agree += 1

        # range proof instance: 8 = 1 * 2^3, 20 = 5 * 2^2, 24 = 3 * 2^3 or
        # 28 = 7 * 2^2 slots, one multiexp per check; each shape meets
        # each tampered field
        n_bits, m = ((8, 1), (5, 4), (6, 4), (7, 4))[i % 4]
        vals = [rng.below(1 << n_bits) for _ in range(m)]
        blinds = [rng.scalar() for _ in range(m)]
        comms = [multiexp([g, q], [v_, b_]) for v_, b_ in zip(vals, blinds)]
        rp = gen_range_proof(range_gens, n_bits, vals, blinds, comms, rng, tr())
        if tamper:
            field = ("delta", "r", "s")[(i // 3) % 3]
            old = getattr(rp, field)
            if isinstance(old, tuple):  # a final vector: bump its first entry
                new = ((old[0] + 1) % Q,) + old[1:]
            else:
                new = (old + 1) % Q
            rp = dataclasses.replace(rp, **{field: new})
        terms = range_terms(range_gens, n_bits, comms, rp, tr())
        naive = ref_ver_range_proof(range_gens, n_bits, comms, rp, tr())
        assert ver_range_proof(range_gens, [terms], rng) == naive == (not tamper)
        range_batch.append((terms, naive))

    assert sq_agree == wf_agree == crt_agree == len(range_batch) == 100
    # a batch (of proofs of several widths) is the AND of their own verdicts
    for lo in range(0, 96, 3):
        for window in (range_batch[lo:lo + 3], range_batch[lo + 2:lo + 4]):
            assert ver_range_proof(range_gens, [t for t, _ in window], root) == all(
                ok for _, ok in window
            )
    assert ver_range_proof(range_gens, [t for t, ok in range_batch if ok], root)
    assert not ver_range_proof(range_gens, [t for t, _ in range_batch], root)


# -- 8. chi-square law and rounding lemmas ----------------------------------------


@pytest.mark.parametrize("k", [4, 16])
def test_criterion_08a_projection_chi_square_ks(k):
    M, d = 1 << 12, 8
    u = np.zeros(d)
    u[0] = 1.0
    totals = []
    for i in range(2500):
        m = sample_matrix(f"ks8/{k}/{i}".encode(), k, d, M)
        vs = m.rows @ u
        totals.append(float(np.sum(vs * vs)) / (M * M))
    res = stats.kstest(totals, stats.chi2(df=k).cdf)
    assert res.pvalue > 1e-3, res


def test_criterion_08b_rounding_inequalities_every_instance():
    # (round) each matrix entry moves < 1/2 when rounded, hence
    # |<a~,u> - <a,u>| <= sqrt(d)/2 ||u||; (round_fail) the reverse
    # bound holds too, so a cheating update cannot hide in the rounding.
    rng = np.random.default_rng(88)
    checked = 0
    for i in range(300):
        k, d = int(rng.integers(1, 12)), int(rng.integers(1, 24))
        M = int(rng.choice([16, 64, 1 << 10]))
        m = sample_matrix(f"lemma/{i}".encode(), k, d, M)
        ideal = m.gaussian_rows()
        assert np.all(np.abs(m.rows - ideal) <= 0.5)
        u = rng.integers(-100, 101, size=d)
        norm = float(np.linalg.norm(u))
        slack = math.sqrt(d) / 2.0 * norm + 1e-9
        rounded = m.rows @ u
        exact = ideal @ u
        assert np.all(rounded <= exact + slack)
        assert np.all(exact <= rounded + slack)
        checked += 1
    assert checked == 300


# -- 9. flag-rule scenarios ---------------------------------------------------------


def test_criterion_09_exhaustive_adversarial_flagging():
    from savi.protocol import Client, Server

    params = CheckParameters.from_epsilon_log2(
        -14, n=7, m=2, d=4, k=2, M=16, B=1.0,
        b_max=32, frac_bits=2, b_coord=16,
    )
    gens = GeneratorSet.derive(mock, params.d, params.range_slots)
    root = DeterministicRng(b"flags-exhaustive")
    clients = {
        i: Client(i, params, gens, root.child(f"c/{i}")) for i in range(1, 8)
    }
    pks = {i: c.pk for i, c in clients.items()}
    for c in clients.values():
        c.register_peers(pks)
    bundles = {i: c.commit_round(1, [0] * params.d) for i, c in clients.items()}

    honest_ids = {1, 2, 3, 4, 5}
    malicious_ids = (6, 7)
    peers = {i: [j for j in range(1, 8) if j != i] for i in malicious_ids}
    scenarios = 0
    over_flagging_caught = survived_false_flags = 0
    for bits6, bits7 in itertools.product(range(64), range(64)):
        f6 = [peers[6][b] for b in range(6) if bits6 >> b & 1]
        f7 = [peers[7][b] for b in range(6) if bits7 >> b & 1]
        server = Server(params, gens, root.child(f"s/{bits6}/{bits7}"))
        server.register_clients(pks)
        server.begin_round(1)
        server.receive_bundles(bundles)
        flags = {i: [] for i in honest_ids}
        flags[6], flags[7] = f6, f7
        requests = server.resolve_flags(flags)

        # scenario A: over-flagging self-incriminates, immediately
        for cid, accusations in ((6, f6), (7, f7)):
            if len(accusations) > params.m:
                assert server.malicious.get(cid) == "over_flagging"
                over_flagging_caught += 1

        # clear-share phase: every targeted client answers truthfully
        responses = {
            t: clients[t].respond_clear_shares(fl) for t, fl in requests.items()
        }
        server.receive_clear_shares(requests, responses)

        # scenario B: no honest client is ever excluded by flag games
        assert not (set(server.malicious) & honest_ids), (
            f"f6={f6} f7={f7}: {server.malicious}"
        )
        if any(requests):
            survived_false_flags += 1

        # scenario C: exposure (the clear shares each target reveals)
        # stays within the recoverability budget
        assert all(len(fl) <= params.m for fl in requests.values())
        scenarios += 1

    assert scenarios == 4096
    assert over_flagging_caught > 0
    assert survived_false_flags > 0


# -- 10. asymptotic cost shape --------------------------------------------------------


def test_criterion_10a_proof_cost_sublinear_in_d():
    rows = [probe_costs(d, k=16) for d in (256, 1024, 4096)]
    proof_ops = [r.stage_total("client_proof") for r in rows]
    commit_ops = [r.stage_total("commit") for r in rows]
    # d grows 16x; proof work may creep (dlog-free h terms) but must
    # stay far from linear, while commitment work tracks d
    assert proof_ops[2] < 2.0 * proof_ops[0]
    assert commit_ops[2] > 10.0 * commit_ops[0]


def test_criterion_10b_communication_within_10_percent():
    report = measure_communication(d=200_000, k=1000)
    assert report.d >= 10**4 and report.k == 1000
    assert report.overhead_ratio <= 1.10
    # the proof really is d-independent: it is a fixed O(k) block
    assert report.proof_bytes < 0.07 * report.baseline_bytes


# -- 11. verifiable secret sharing ------------------------------------------------------


def test_criterion_11_vsss_suite():
    g = GeneratorSet.derive(mock, 1, 4).g
    root = DeterministicRng(b"vsss-acceptance")

    # recovery over every t-subset for n <= 8
    for n in (5, 8):
        for t in (2, 4):
            rng = root.child(f"rec/{n}/{t}")
            secret = rng.scalar()
            shares, check = ss_share(secret, n, t, g, rng)
            assert all(ss_verify(sh, check) for sh in shares)
            for subset in itertools.combinations(shares, t):
                assert ss_recover(list(subset), t) == secret

    # homomorphic verify + tamper detection, randomized
    detected = 0
    for i in range(100):
        rng = root.child(f"hom/{i}")
        s1, s2 = rng.scalar(), rng.scalar()
        sh1, ch1 = ss_share(s1, 6, 3, g, rng)
        sh2, ch2 = ss_share(s2, 6, 3, g, rng)
        combined_shares = [
            Share(index=a.index, value=(a.value + b.value) % Q)
            for a, b in zip(sh1, sh2)
        ]
        combined_check = combine_check_strings([ch1, ch2])
        assert all(ss_verify(sh, combined_check) for sh in combined_shares)
        assert ss_recover(combined_shares[:3], 3) == (s1 + s2) % Q
        # single-share tamper must always be detected
        victim = combined_shares[i % 6]
        bad = Share(index=victim.index, value=(victim.value + 1 + i) % Q)
        assert not ss_verify(bad, combined_check)
        detected += 1
    assert detected == 100
