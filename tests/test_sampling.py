import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from savi.group import GROUP_ORDER
from savi.group.encoding import quantize_vector
from savi import sampling
from savi.harness.config import SimulationConfig, deployment_preset
from savi.sampling import (
    CheckParameters,
    _exact_products,
    chi_square_quantile,
    compute_b0,
    derive_seed,
    max_expected_damage,
    pass_rate_F,
    sample_matrix,
)
from savi.zkp.rangeproof import range_width
from norm_reference import plaintext_check

Q = GROUP_ORDER
X = 128 * math.log(2)  # the rounding bound fails with probability e^-X = 2^-128


def _rho(k):
    """sqrt(k + 2 sqrt(kx) + 2x): 2 ||E u|| / ||u|| is at most this except
    with probability e^-x (Hsu, Kakade and Zhang)."""
    return math.sqrt(k + 2 * math.sqrt(k * X) + 2 * X)


# -- seed derivation ---------------------------------------------------------


def test_derive_seed_deterministic_and_order_sensitive():
    pks = [b"A" * 32, b"B" * 32, b"C" * 32]
    s = b"\x07" * 32
    assert derive_seed(s, pks) == derive_seed(s, pks)
    assert derive_seed(s, pks) != derive_seed(s, [pks[1], pks[0], pks[2]])
    flipped = bytes([s[0] ^ 1]) + s[1:]
    assert derive_seed(flipped, pks) != derive_seed(s, pks)
    assert derive_seed(s, pks[:2]) != derive_seed(s, pks)


def test_derive_seed_length_prefixing():
    # moving a byte across the nonce/key boundary must change the hash
    a = derive_seed(b"xy", [b"z" + b"k" * 31, b"w" * 32])
    b = derive_seed(b"xyz", [b"k" * 31 + b"w", b"w" * 31])
    assert a != b


# -- matrix statistics -------------------------------------------------------


def test_rows_are_rounded_gaussians():
    m = sample_matrix(b"stats", 1000, 100, 1 << 24)
    unrounded = sampling._gaussian_rows(m.seed, m.k, m.d, m.M)
    assert np.all(np.abs(m.rows - unrounded) <= 0.5)
    flat = unrounded.ravel() / float(1 << 24)
    n = flat.size
    assert abs(flat.mean()) < 4.0 / math.sqrt(n)
    assert abs(flat.std() - 1.0) < 0.01
    # kurtosis separates a true normal from e.g. uniform or laplace
    assert abs(stats.kurtosis(flat)) < 0.05


def test_a0_row_full_width():
    m = sample_matrix(b"widths", 4, 64, 1 << 12)
    assert len(m.a0) == 64
    assert all(0 <= a < Q for a in m.a0)
    # a_0 entries are ~256-bit; their top bytes must not all agree
    assert len({a >> 200 for a in m.a0}) > 32


def test_determinism_frozen():
    m = sample_matrix(b"frozen-fixture", 8, 8, 1024)
    h = hashlib.sha256()
    h.update(b",".join(str(a).encode() for a in m.a0))
    h.update(m.rows.tobytes())
    assert (
        h.hexdigest()
        == "7885d8a25935e3cd7dcfa7fafdf1375e5886d6d77229005984e687e1d0ce0499"
    )
    assert m.rows[0, :4].tolist() == [-433, -845, -1229, 1481]


def test_row_inner_matches_numpy():
    m = sample_matrix(b"inner", 8, 16, 1 << 10)
    u = list(range(-8, 8))
    v = m.row_inner(u)
    assert v[0] == sum(a * x for a, x in zip(m.a0, u)) % Q
    ref = m.rows @ np.asarray(u)
    assert v[1:] == [int(x) for x in ref]


def test_row_inner_huge_coordinates_exact():
    # coordinates of 40 to 42 bits, far above an update's, compared
    # against pure python.  At this matrix's peak entry a limb holds 49
    # bits, so they still take the one int64 matmul, near its edge;
    # test_exact_products_equal_python_sums covers several limbs
    m = sample_matrix(b"big", 4, 4, 1 << 10)
    u = [1 << 40, -(1 << 41), 1 << 39, 3]
    v = m.row_inner(u)
    for t in range(4):
        assert v[1 + t] == sum(int(a) * x for a, x in zip(m.rows[t], u))


_WIDE = st.one_of(
    st.integers(-(1 << 300), 1 << 300),
    # limb edges: +-(2^e - 1), +-2^e and +-(2^e + 1)
    st.builds(lambda e, s, o: s * ((1 << e) + o), st.integers(0, 300),
              st.sampled_from((-1, 1)), st.integers(-1, 1)),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_products_equal_python_sums(data):
    # both orientations: xs A, as in b A, and u A^T, as in A u (A^T is a
    # transposed view, as row_inner passes it); entries up to the largest
    # that len max|a| < 2^61 allows, where a limb has one bit
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    edge = data.draw(st.booleans())
    cap = ((1 << 61) - 1) // max(n, m) if edge else data.draw(st.integers(0, 1 << 20))
    entries = st.lists(st.integers(-cap, cap), min_size=n * m, max_size=n * m)
    a = np.array(data.draw(entries), dtype=np.int64).reshape(n, m)
    if edge:
        a[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))] = -cap
    for size, matrix in ((n, a), (m, a.T)):
        zero = data.draw(st.booleans())
        xs = [0] * size if zero else data.draw(st.lists(_WIDE, min_size=size, max_size=size))
        want = [sum(x * int(matrix[t, l]) for t, x in enumerate(xs)) for l in range(matrix.shape[1])]
        assert _exact_products(xs, matrix) == want


def test_weighted_combination_matches_naive():
    m = sample_matrix(b"wc", 6, 10, 1 << 10)
    rng = np.random.default_rng(3)
    weights = [int.from_bytes(rng.bytes(32), "little") % Q for _ in range(7)]
    got = m.weighted_combination(weights)
    rows = [list(m.a0)] + [[int(x) for x in r] for r in m.rows]
    want = [
        sum(w * row[l] for w, row in zip(weights, rows)) % Q for l in range(10)
    ]
    assert got == want


def test_projection_distribution_ks():
    # normalized squared-projection sums must follow chi2_k
    for k in (4, 16):
        totals = []
        u = np.zeros(8)
        u[0] = 1.0  # unit vector: projections are N(0, M^2) exactly
        M = 1 << 12
        for i in range(2500):
            m = sample_matrix(f"ks/{k}/{i}".encode(), k, 8, M)
            vs = m.rows @ u
            totals.append(float(np.sum(vs * vs)) / (M * M))
        res = stats.kstest(totals, stats.chi2(df=k).cdf)
        assert res.pvalue > 1e-3, f"k={k}: {res}"


# -- chi-square quantile -----------------------------------------------------


def test_quantile_known_values():
    assert abs(chi_square_quantile(1, 0.5) - 0.4549364231) < 1e-6
    # P[chi2_2 >= g] = exp(-g/2), so eps = e^-1 gives exactly 2
    assert abs(chi_square_quantile(2, math.exp(-1)) - 2.0) < 1e-12


def test_quantile_extreme_tail_mpmath():
    g = chi_square_quantile(1000, 2.0**-128)
    mp.mp.dps = 60
    logsf = mp.log(
        mp.gammainc(mp.mpf(1000) / 2, mp.mpf(g) / 2, mp.inf, regularized=True), 2
    )
    assert abs(float(logsf) + 128.0) < 0.5
    assert abs(g - 1701.7372838) < 1e-4


def test_quantile_inverts_sf():
    for k in (1, 2, 7, 64, 333):
        for eps in (0.3, 1e-2, 1e-6, 1e-12):
            g = chi_square_quantile(k, eps)
            assert math.isclose(stats.chi2.sf(g, k), eps, rel_tol=1e-9)


def test_quantile_monotonicity():
    gs = [chi_square_quantile(50, eps) for eps in (0.5, 0.1, 1e-3, 1e-9, 1e-30)]
    assert gs == sorted(gs)
    ks = [chi_square_quantile(k, 1e-6) for k in (1, 2, 10, 100, 1000)]
    assert ks == sorted(ks)


def test_quantile_input_validation():
    with pytest.raises(ValueError):
        chi_square_quantile(0, 0.5)
    with pytest.raises(ValueError):
        chi_square_quantile(4, 0.0)
    with pytest.raises(ValueError):
        chi_square_quantile(4, 1.0)


# -- B0 ----------------------------------------------------------------------


def test_compute_b0_oracle():
    # the rounding term is min(sqrt(kd), rho(k)) / (2M): rho(16) < sqrt(512)
    # in the first case (B0 was 5,703,505 with sqrt(kd)), and sqrt(kd) is the
    # smaller in the second
    for (b_enc, M, k, d, eps), norm in [
        ((19, 16, 16, 32, 2.0**-16), _rho(16)),
        ((19, 16, 8, 16, 2.0**-16), math.sqrt(8 * 16)),
    ]:
        assert norm == min(math.sqrt(k * d), _rho(k))
        gamma = chi_square_quantile(k, eps)
        want = math.ceil(b_enc**2 * M**2 * (math.sqrt(gamma) + norm / (2 * M)) ** 2)
        assert compute_b0(b_enc, M, k, d, eps) == want


def test_compute_b0_large_M_limit():
    # rounding slack vanishes: b0 -> ceil(b_enc^2 M^2 gamma)
    gamma = chi_square_quantile(8, 1e-6)
    M = 1 << 40
    b0 = compute_b0(3, M, 8, 100, 1e-6)
    assert abs(b0 / (9 * M * M) - gamma) < 1e-4


def test_compute_b0_monotone_in_epsilon():
    assert compute_b0(10, 1 << 20, 64, 100, 1e-12) > compute_b0(
        10, 1 << 20, 64, 100, 1e-3
    )


# -- pass rate F and damage --------------------------------------------------


def test_pass_rate_reference_values():
    # deployment-scale setting: k=1000, eps=2^-128, d=1e6, M=2^24; with
    # the rounding term sqrt(kd)/(2M) in place of rho(k)/(2M), F(1.4) was
    # 1.075e-3
    f12 = pass_rate_F(1.2, 1000, 2.0**-128, 10**6, 1 << 24)
    f14 = pass_rate_F(1.4, 1000, 2.0**-128, 10**6, 1 << 24)
    assert f12 > 0.9999
    assert abs(f14 - 1.064e-3) < 0.005e-3


def test_pass_rate_limits():
    # F is never below 2^-128, the probability that the rounding bound
    # fails (it was 0.0 here before F carried that term)
    assert pass_rate_F(1e9, 64, 2.0**-20, 100, 1 << 20) == 2.0**-128
    # tiny c: the check essentially always passes
    assert pass_rate_F(1e-6, 64, 2.0**-20, 100, 1 << 20) > 1 - 1e-12
    with pytest.raises(ValueError):
        pass_rate_F(0.0, 64, 2.0**-20, 100, 1 << 20)


def test_pass_rate_monotone_decreasing_in_c():
    vals = [pass_rate_F(c, 128, 2.0**-30, 1000, 1 << 20) for c in np.linspace(1, 3, 30)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_pass_rate_against_monte_carlo():
    # empirical pass rate over real (rounded) matrices; M large enough
    # that the 1x-vs-3x rounding-correction gap is far below 3 sigma
    k, d, M, eps = 16, 8, 1 << 12, 2.0**-16
    b_enc = 100
    c = 2.0
    b0 = compute_b0(b_enc, M, k, d, eps)
    u = [round(c * b_enc)] + [0] * (d - 1)
    hits = 0
    n = 4000
    for i in range(n):
        m = sample_matrix(f"mc/{i}".encode(), k, d, M)
        hits += plaintext_check(u, m, b0=b0)
    f = pass_rate_F(c, k, eps, d, M)
    assert 0.2 < f < 0.8  # the test point must actually discriminate
    sigma = math.sqrt(f * (1 - f) / n)
    assert abs(hits / n - f) < 3 * sigma + 2e-3


@pytest.mark.parametrize("c", [0.5, 1.3, 2.0, 3.0, 8.0])
def test_pass_rate_takes_the_rounding_term_one_plus_c_times(c):
    # an update of norm c b_enc passes only if M ||G u|| <= sqrt(B0) + ||E u||,
    # so F is the chi-square CDF at ((sqrt(gamma) + (1 + c) r)/c)^2, plus
    # 2^-128.  At M = 1 the rounding term r is large; F took it 3 times,
    # which reads below this point for c > 2 and above it for c < 2
    k, eps, d, M = 1, 0.5, 1, 1
    r = 1 / (2 * M)  # sqrt(kd) = 1 is below rho(1)
    root = math.sqrt(stats.chi2.isf(eps, k))
    expected = stats.chi2.cdf(((root + (1 + c) * r) / c) ** 2, k) + 2.0**-128
    assert 0.2 < expected < 0.999  # the point is not in a tail
    assert pass_rate_F(c, k, eps, d, M) == expected


def test_max_damage_against_grid():
    k, eps, d, M = 256, 2.0**-40, 10**4, 1 << 24
    c_star, peak = max_expected_damage(k, eps, d, M)
    grid = np.geomspace(1.0 + 1e-9, 50.0, 200_000)
    brute = max(c * pass_rate_F(c, k, eps, d, M) for c in grid)
    assert abs(peak - brute) < 1e-3
    assert c_star * pass_rate_F(c_star, k, eps, d, M) >= brute - 1e-6


def test_max_damage_deployment_scale():
    c_star, peak = max_expected_damage(1000, 2.0**-128, 10**6, 1 << 24)
    assert abs(c_star - 1.2375) < 5e-4
    assert abs(peak - 1.2279) < 5e-4


def _grid_and_brent(k, eps, d, M):
    """The reference damage search: c * F(c) on 4,096 geometric ratios in
    (1, 1000], one ratio at a time through ``stats.chi2.cdf``, then a
    bounded Brent step between the best ratio's two neighbours."""
    gamma, r = chi_square_quantile(k, eps), sampling.rounding_norm(k, d) / (2.0 * M)

    def neg_damage(c):
        point = ((math.sqrt(gamma) + (1.0 + c) * r) / c) ** 2
        return -c * (float(stats.chi2.cdf(point, k)) + 2.0**-128)

    grid = np.geomspace(1.0 + 1e-9, 1e3, 4096)
    best = int(np.argmin([neg_damage(c) for c in grid]))
    bounds = (grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)])
    res = optimize.minimize_scalar(
        neg_damage, bounds=bounds, method="bounded", options={"xatol": 1e-9}
    )
    return float(res.x), float(-res.fun)


@pytest.mark.parametrize(
    "k, eps, d, M",
    [
        (1000, 2.0**-128, 10**4, 1 << 10),
        (1000, 2.0**-128, 10**6, 1 << 24),
        (256, 2.0**-40, 10**4, 1 << 24),
        (128, 2.0**-30, 10**3, 1 << 20),
        (32, 2.0**-40, 256, 1 << 10),
        (8, 2.0**-40, 64, 1 << 10),
        (4, 2.0**-40, 4096, 1 << 10),
        (2, 2.0**-40, 64, 1 << 10),
        # at k = 1, c * F(c) still rises at the cap: both end there
        (1, 2.0**-40, 64, 1 << 10),
        (1, 0.5, 1, 1),
    ],
)
def test_max_damage_matches_grid_and_brent(k, eps, d, M):
    # measured: c* within 2.6e-8 relative of the reference's, the damage
    # never below it (equal to 1e-14 where a peak exists)
    c_star, peak = max_expected_damage(k, eps, d, M)
    c_ref, peak_ref = _grid_and_brent(k, eps, d, M)
    assert c_star == pytest.approx(c_ref, rel=1e-7)
    assert peak >= peak_ref - 1e-12


_FOOTPRINT = """
import sys
import savi.harness, savi.harness.cli
from savi.harness import SimulationConfig, run_simulation
from savi.sampling import max_expected_damage
(rep,) = run_simulation(SimulationConfig(n=3, m=1, d=8, k=4, seed=1, backend="mock"))
assert rep.aggregate_ok
max_expected_damage(1000, 2.0**-128, 10**4, 1 << 10)
print(" ".join(sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.optimize")))))
"""


def test_no_savi_process_loads_scipy_stats_or_optimize():
    # these modules were about 45 MiB of a savi process's 112-120 MiB
    # peak; a fresh process, since this test module imports both
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True, env=env, timeout=300
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.split() == []


# -- plaintext check ---------------------------------------------------------


def test_max_expected_damage_derives_gamma_once(monkeypatch):
    calls = []
    quantile = sampling.chi_square_quantile

    def counted(k, epsilon):
        calls.append((k, epsilon))
        return quantile(k, epsilon)

    monkeypatch.setattr(sampling, "chi_square_quantile", counted)
    max_expected_damage(8, 2.0**-40, 64, 1 << 10)
    assert calls == [(8, 2.0**-40)]


def test_plaintext_check_zero_update():
    m = sample_matrix(b"zero", 16, 8, 1 << 10)
    assert plaintext_check([0] * 8, m, b0=0)


def test_plaintext_check_honest_rate():
    # honest norms <= B fail with probability <= eps = 0.01
    params = CheckParameters(
        n=2, m=0, d=16, k=32, epsilon=0.01, M=1 << 10, B=4.0,
        b_max=64, frac_bits=4, b_coord=16,
    )
    rng = np.random.default_rng(77)
    fails = 0
    n_trials = 10_000
    for i in range(n_trials):
        x = rng.standard_normal(params.d)
        x *= params.B / np.linalg.norm(x)  # worst case: norm exactly B
        u = quantize_vector(x.tolist(), params.frac_bits, params.b_coord)
        m = sample_matrix(f"honest/{i}".encode(), params.k, params.d, params.M)
        fails += not plaintext_check(u, m, b0=params.b0)
    # binomial 3-sigma band around eps (the bound is conservative, so
    # the observed rate generally sits well below it)
    assert fails <= n_trials * 0.01 + 3 * math.sqrt(n_trials * 0.01 * 0.99)


def test_plaintext_check_double_norm_rejected():
    params = CheckParameters(
        n=2, m=0, d=16, k=1000, epsilon=2.0**-40, M=1 << 20, B=4.0,
        b_max=128, frac_bits=4, b_coord=16,
    )
    rng = np.random.default_rng(78)
    f2 = pass_rate_F(2.0, params.k, params.epsilon, params.d, params.M)
    assert f2 < 1e-30
    for i in range(200):
        x = rng.standard_normal(params.d)
        x *= 2.0 * params.B / np.linalg.norm(x)
        u = quantize_vector(x.tolist(), params.frac_bits, params.b_coord)
        m = sample_matrix(f"dbl/{i}".encode(), params.k, params.d, params.M)
        assert not plaintext_check(u, m, b0=params.b0)


def test_plaintext_check_idealized_route():
    m = sample_matrix(b"ideal", 8, 8, 1 << 10)
    u = [3, -1, 0, 2, 0, 0, 1, -2]
    total = sum(int(v) ** 2 for v in (m.rows @ np.asarray(u)))
    gamma_tight = total / ((1 << 10) ** 2 * sum(x * x for x in u))
    assert plaintext_check(
        u, m, B=math.sqrt(sum(x * x for x in u)), M=1 << 10, gamma=gamma_tight * 1.01
    )
    assert not plaintext_check(
        u, m, B=math.sqrt(sum(x * x for x in u)), M=1 << 10, gamma=gamma_tight * 0.99
    )
    with pytest.raises(ValueError):
        plaintext_check(u, m)  # neither b0 nor (B, M, gamma)


# -- rounding lemma ----------------------------------------------------------


def test_quantization_norm_slack():
    # encoded norm <= B*2^fb + sqrt(d)/2 <= b_enc for any float input
    params = CheckParameters(
        n=2, m=0, d=64, k=4, epsilon=0.01, M=1 << 10, B=2.0,
        b_max=64, frac_bits=6, b_coord=16,
    )
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        x = rng.standard_normal(params.d)
        x *= params.B / np.linalg.norm(x)
        u = quantize_vector(x.tolist(), params.frac_bits, params.b_coord)
        worst = max(worst, math.sqrt(sum(v * v for v in u)))
    bound = params.B * (1 << params.frac_bits) + math.sqrt(params.d) / 2
    assert worst <= params.b_enc
    assert worst <= bound
    # and the slack is not vacuous: some vector must exceed B*2^fb
    assert worst > params.B * (1 << params.frac_bits) - 1


def test_matrix_rounding_projection_drift():
    # |<a_t,u> - <a~_t,u>| <= sqrt(d)/2 * ||u||_2, both directions live
    m = sample_matrix(b"drift", 32, 16, 1 << 6)  # tiny M: rounding matters
    real = sampling._gaussian_rows(m.seed, m.k, m.d, m.M)
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = rng.integers(-50, 51, size=16)
        exact = m.rows @ u
        ideal = real @ u
        drift = np.abs(exact - ideal)
        assert np.all(drift <= math.sqrt(16) / 2 * np.linalg.norm(u) + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.binary(min_size=1, max_size=8),
    k=st.integers(1, 16),
    M=st.sampled_from([1, 2, 4, 16]),
    data=st.data(),
)
def test_rounding_error_within_the_high_probability_bound(seed, k, M, data):
    # ||E u||^2 <= (||u||^2 / 4)(k + 2 sqrt(kx) + 2x), whatever d is, for
    # u fixed before the matrix (the module docstring of savi.sampling)
    d = data.draw(st.integers(1, 300), label="d")
    u = np.array(
        data.draw(st.lists(st.integers(1 - 2**15, 2**15 - 1), min_size=d, max_size=d), label="u")
    )
    matrix = sample_matrix(seed, k, d, M)
    # exact in float64: the entries are below 2^8 and E's below 1/2
    err = matrix.rows - sampling._gaussian_rows(matrix.seed, matrix.k, matrix.d, matrix.M)
    assert np.all(np.abs(err) <= 0.5)
    eu = err @ u
    assert float(eu @ eu) <= float(u @ u) / 4 * _rho(k) ** 2


def test_derived_m_does_not_grow_with_d():
    # at k = 32, kd is above rho(32)^2 = 316 at each d, so the rounding
    # term is rho(32)/(2M) at each; with sqrt(kd)/(2M), log2 M was 13, 15
    # and 15
    derived = {
        d: CheckParameters(n=1, m=0, d=d, k=32, epsilon=2.0**-40, B=1.0).M
        for d in (256, 4096, 10_000)
    }
    assert 32 * 256 > _rho(32) ** 2
    assert derived == {256: 1 << 10, 4096: 1 << 10, 10_000: 1 << 10}


def test_parameter_validation():
    with pytest.raises(ValueError):
        sample_matrix(b"x", 0, 4, 16)
    with pytest.raises(ValueError):
        sample_matrix(b"x", 4, 0, 16)
    with pytest.raises(ValueError):
        sample_matrix(b"x", 4, 4, 0)
    with pytest.raises(ValueError):
        CheckParameters(  # B too wide for the coordinate window
            n=2, m=0, d=4, k=4, epsilon=0.01, M=16, B=300.0,
            b_max=64, frac_bits=8, b_coord=16,
        )
    with pytest.raises(ValueError):
        CheckParameters(  # b_max = 9 * 8: odd part above 7 (was b_ip = 9 * 2)
            n=2, m=0, d=4, k=4, epsilon=0.01, M=16, B=1.0,
            b_max=72, frac_bits=8, b_coord=16,
        )
    with pytest.raises(ValueError):
        CheckParameters.from_epsilon_log2(
            16, n=2, m=0, d=4, k=4, M=16, B=1.0, b_max=64
        )


def test_check_parameters_derived_fields():
    p = CheckParameters(
        n=10, m=2, d=100, k=24, epsilon=2.0**-20, M=1 << 16, B=1.0,
        b_max=64, frac_bits=8, b_coord=16,
    )
    assert p.threshold == 3
    # one slack range proof of b_max slots (was b_ip * k_padded = 32 * 32)
    assert p.range_slots == 64
    # W = ceil(sqrt(k B0)) and T = 2^8 W
    assert (p.mask_slack - 1) ** 2 < p.k * p.b0 <= p.mask_slack**2
    assert p.z_bound == 256 * p.mask_slack
    assert p.b_enc == math.ceil(256 + 5.0)
    assert p.b0 == compute_b0(p.b_enc, p.M, p.k, p.d, p.epsilon)


def test_range_width_rule():
    # the smallest width at least the need whose odd part is at most 7
    assert [range_width(w) for w in (1, 9, 33, 40, 41, 64, 65, 76)] == [
        1, 10, 40, 40, 48, 64, 80, 80,
    ]


def _widths(**overrides):
    fields = dict(n=3, m=1, d=256, k=32, epsilon=2.0**-40, M=1 << 20, B=1.0)
    return CheckParameters(**{**fields, **overrides})


def test_widths_derived_from_b0():
    p = _widths()  # proof_heavy's shape: B0 has 64 bits
    assert p.b0.bit_length() == 64
    # the range slots were b_ip * k_padded = 40 * 32 = 1,280 at savi/v6
    assert (p.b_max, p.range_slots) == (64, 64)
    # deployment: B0 has 76 bits, so b_max=76 is needed (and b_ip was 40)
    deploy = _widths(d=10_000, k=1_000, epsilon=2.0**-128, M=1 << 24)
    assert deploy.b0.bit_length() == 76
    assert (deploy.b_max, deploy.range_slots) == (80, 80)
    # an explicit width that meets the need and the shape is kept
    assert _widths(b_max=96).b_max == 96


@pytest.mark.parametrize(
    "widths,match",
    [
        # (this case was (b_ip=32) "b_ip too narrow", and the b_max=36,
        # b_max=0 and b_max=320 cases below were (b_ip=36), (b_ip=0) and
        # (b_ip=128))
        (dict(b_max=48), "overflows b_max"),  # 3 * 16, but B0 has 64 bits
        (dict(b_max=56), "overflows b_max"),  # 7 * 8, but B0 has 64 bits
        (dict(b_max=36), "odd part"),  # 9 * 4
        (dict(b_max=72), "odd part"),  # 9 * 8
        (dict(b_max=0), "odd part"),
        (dict(b_max=256), "wraps"),  # 2^256 alone exceeds the order
        (dict(b_max=320), "wraps"),  # 5 * 2^6
    ],
)
def test_explicit_widths_rejected(widths, match):
    with pytest.raises(ValueError, match=match):
        _widths(**widths)


def test_m_beyond_limb_products_rejected_at_construction():
    # |a_tl| <= 8.572 M + 0.5, and _exact_products needs a limb of one bit
    # at least: max(k, d) (ceil(8.572 M) + 1) < 2^61, so at k = d = 64 that
    # allows 2^51 but not 2^52 (the 16-bit limbs of b A alone allowed 2^36
    # but not 2^37)
    with pytest.raises(ValueError, match=f"64 x 64 matrix at M={1 << 52}.*leave M unset"):
        _widths(d=64, k=64, M=1 << 52)
    with pytest.raises(ValueError, match="64 x 64 matrix"):
        SimulationConfig(n=3, m=1, d=64, k=64, M=1 << 56)
    fits = _widths(d=64, k=64, M=1 << 51)
    matrix = sample_matrix(b"wide-M", fits.k, fits.d, fits.M)
    weights = [Q - 1 - t for t in range(fits.k + 1)]
    rows = [list(matrix.a0)] + matrix.rows.tolist()
    assert matrix.weighted_combination(weights) == [
        sum(w * row[l] for w, row in zip(weights, rows)) % Q for l in range(fits.d)
    ]
    # the deployment preset and M = 2^24 at k = 1000, d = 10^6 still fit
    deployment_preset()
    _widths(d=1_000_000, k=1_000, epsilon=2.0**-128, M=1 << 24)


def test_derived_m_beyond_limb_products_gives_no_advice_to_derive_it():
    # d = 2^57 is within MAX_DIM, but the derived M leaves no limb; the
    # advice to leave M unset is for an explicit M only
    with pytest.raises(ValueError, match="8 x 144115188075855872 matrix at M=") as err:
        CheckParameters(n=1, m=0, d=2**57, k=8, epsilon=2**-16, B=1.0)
    assert "leave M unset" not in str(err.value)


# -- the derived scale M -------------------------------------------------------

# The benchmark workloads' shapes at the default epsilon 2^-40 and the
# deployment preset: the derived log2 M, the width b_max, the range slots
# and the bit width of a z_j it gives, and the M these shapes ran at before
# M was derived.  With the worst-case rounding term sqrt(kd)/(2M) (savi/v7
# until rho(k) replaced it), log2 M was 13, 14, 11 and 16 and the widths
# (56, 56, 37), (56, 56, 36), (48, 48, 33) and (64, 64, 44).  At savi/v6
# (b_ip, b_max, range slots) were (28, 56, 896), (28, 56, 112),
# (24, 48, 192) and (32, 64, 32,768).
_DERIVED_M = {
    "proof_heavy": (dict(d=256, k=32), 10, (48, 48, 34), 1 << 20),
    "wide_update": (dict(d=4096, k=4), 10, (48, 48, 32), 1 << 20),
    "crowd_attack": (dict(n=12, m=3, d=64, k=8), 10, (48, 48, 32), 1 << 20),
    "deployment": (None, 10, (48, 48, 38), 1 << 24),
}


def _derived(name, **overrides):
    shape = _DERIVED_M[name][0]
    if shape is None:
        return deployment_preset(**overrides).check_parameters()
    return SimulationConfig(**shape, **overrides).check_parameters()


@pytest.mark.parametrize("name", sorted(_DERIVED_M))
def test_derived_m_is_the_smallest_power_of_two_within_the_slack(name):
    p = _derived(name)

    def rounding_term(M):  # sqrt(kd) / (2M) before rho(k)
        return min(math.sqrt(p.k * p.d), _rho(p.k)) / (2 * M)

    assert p.M & (p.M - 1) == 0
    assert rounding_term(p.M) <= 2.0**-10 * math.sqrt(p.gamma)
    assert rounding_term(p.M / 2) > 2.0**-10 * math.sqrt(p.gamma)


@pytest.mark.parametrize("name", sorted(_DERIVED_M))
def test_derived_m_pinned(name):
    _, log2_m, widths, _ = _DERIVED_M[name]
    p = _derived(name)
    assert p.M == 1 << log2_m
    assert (p.b_max, p.range_slots, p.z_width) == widths


def test_explicit_m_kept():
    p = _derived("proof_heavy", M=1 << 20)
    assert p.M == 1 << 20
    assert (p.b_max, p.range_slots) == (64, 64)  # (b_ip, b_max, slots) were (40, 64, 1280)
    assert _widths(M=12_345).M == 12_345  # not even a power of two
    assert SimulationConfig().M is None  # derived by check_parameters, not stored


@pytest.mark.parametrize("name", sorted(_DERIVED_M))
def test_derived_m_keeps_the_damage_within_half_a_percent(name):
    # measured: +0.234%, +0.274%, +0.263% on proof_heavy, wide_update and
    # crowd_attack, +0.150% at the deployment preset, against the M they
    # ran at before M was derived (+0.148%, +0.146%, +0.193% and +0.17%
    # with the rounding term sqrt(kd)/(2M))
    old_m = _DERIVED_M[name][3]
    p = _derived(name)
    _, derived = max_expected_damage(p.k, p.epsilon, p.d, p.M)
    _, before = max_expected_damage(p.k, p.epsilon, p.d, old_m)
    assert 0 < derived / before - 1 < 0.005
