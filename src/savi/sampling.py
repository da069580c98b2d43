"""Shared-seed projection sampling and the chi-square mathematics behind it.

The norm check projects the (integer) update onto k rounded Gaussian rows
and compares the summed squares against B0.  Everything here is either
the deterministic generation of that projection matrix from a shared
seed, or the numerics that justify the threshold: the chi-square
quantile gamma_{k,eps}, the rounding-slack-adjusted bound B0, an upper
bound F on an attacker's pass rate, and the worst-case expected damage
that F allows.

The rounding term.  The rows are A = M G + E: G has independent N(0, 1)
entries, and E is the rounding error.  Each entry of M G is rounded on
its own, half away from zero, so each eps_tl lies in [-1/2, 1/2].  That
rounding is odd (round(-y) = -round(y)) and G's entries are symmetric
about 0, so each eps_tl is symmetric about 0 and has mean 0, and the
eps_tl are independent.  The update u is fixed before A is drawn: A
comes from the round's nonce, which the server picks after the
commitments.  So each entry (E u)_t = sum_l eps_tl u_l is a sum of
independent mean-zero terms, the l-th in an interval of width |u_l|, and
is sub-Gaussian with variance proxy ||u||^2 / 4 (Hoeffding's lemma).
The tail inequality for quadratic forms of sub-Gaussian vectors of Hsu,
Kakade and Zhang (2012), applied to ||E u||^2 = ||(I_k (x) u^T) vec E||^2,
then gives

    ||E u||^2 <= (||u||^2 / 4) (k + 2 sqrt(k x) + 2 x)

except with probability e^-x, whatever d is.  Here x = 128 ln 2, so
e^-x = 2^-128, and rho(k) = sqrt(k + 2 sqrt(k x) + 2 x).  The worst case
||E u|| <= ||E||_F ||u|| <= sqrt(kd) ||u|| / 2 always holds, and
``rounding_norm`` takes the smaller of sqrt(kd) and rho(k): the worst case
at tiny shapes (d < 30 at k = 8), rho(k) elsewhere.  The rounding term is
rounding_norm(k, d) / (2M).

Both directions use the bound through the triangle inequality,
| ||A u|| - M ||G u|| | <= ||E u||, as they did with the worst case:

  * completeness: an honest u with ||u|| <= b_enc has
    ||G u||^2 <= gamma ||u||^2 except with probability eps, so
    ||A u|| <= b_enc M (sqrt(gamma) + rounding_norm / (2M)), whose square
    is B0 (``compute_b0``), except with probability eps + 2^-128;
  * soundness: an update of norm c b_enc passes only if
    M ||G u|| <= sqrt(B0) + ||E u||, that is, with r the rounding term,
    ||G u|| / ||u|| <= (sqrt(gamma) + (1 + c) r) / c.  F (``_f``) is the
    chi-square CDF there, plus 2^-128.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from numpy.random import Philox
from scipy import special

from .group.base import GROUP_ORDER, Point
from .group.scalars import reduce_wide
from .zkp.rangeproof import MAX_ODD_PART, range_width, slot_shape

_Q = GROUP_ORDER

# Box-Muller on 53-bit uniforms gives |z| <= sqrt(106 ln 2) < 8.572, so a
# rounded row entry is at most 8.572 M + 0.5 in magnitude.  Exact, so the
# width check holds for an M of any size.
_MAX_ABS_Z = Fraction("8.572")
# A derived M keeps the rounding term within this fraction of sqrt(gamma).
_ROUNDING_SLACK = 2.0**-10
# The rounding bound rho(k) fails with probability e^-x = 2^-_TAIL_LOG2
# (see the module docstring); that probability is added to eps and to F.
_TAIL_LOG2 = 128
_TAIL = 2.0**-_TAIL_LOG2
DAMAGE_SEARCH_CAP = 1e3  # ``max_expected_damage`` searches c in (1, 1000]


def derive_seed(s: bytes, pks: Sequence[Union[Point, bytes]]) -> bytes:
    """Hash the server nonce together with the ordered client keys."""
    h = hashlib.sha256()
    h.update(len(s).to_bytes(4, "little"))
    h.update(s)
    h.update(len(pks).to_bytes(4, "little"))
    for pk in pks:
        h.update(pk.encode() if isinstance(pk, Point) else pk)
    return h.digest()


def _gaussian_rows(seed: bytes, k: int, d: int, M: int) -> np.ndarray:
    """The pre-rounding N(0, M^2) rows, reproducible bit-for-bit.

    Built from Philox raw output (whose stream is stable across numpy
    versions) and an explicit Box-Muller transform rather than
    Generator.standard_normal, whose stream is not guaranteed.
    """
    key = np.frombuffer(hashlib.sha256(seed + b"/rows").digest()[:16], dtype=np.uint64)
    total = k * d
    pairs = (total + 1) // 2
    raw = Philox(key=key).random_raw(2 * pairs)
    # 53-bit uniforms; u1 in (0, 1] so log never sees zero.
    u1 = ((raw[0::2] >> np.uint64(11)) + 1) * 2.0**-53
    u2 = (raw[1::2] >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:total]
    return (z * M).reshape(k, d)


def _round_half_away(b: np.ndarray) -> np.ndarray:
    return (np.sign(b) * np.floor(np.abs(b) + 0.5)).astype(np.int64)


@dataclass
class SampleMatrix:
    """One full-width binding row a_0 plus k small rounded-Gaussian rows.

    A u (``row_inner``) and b A (``weighted_combination``) are exact, from
    ``_exact_products``: its int64 limbs are as wide as max|a_tl| and the
    summed length (d or k) allow, and ``CheckParameters`` bounds M."""

    seed: bytes
    M: int
    a0: tuple[int, ...]
    rows: np.ndarray  # (k, d) int64

    @property
    def k(self) -> int:
        return int(self.rows.shape[0])

    @property
    def d(self) -> int:
        return int(self.rows.shape[1])

    def row_inner(self, u: Sequence[int]) -> list[int]:
        """[<a_0,u> mod p, <a_1,u>, ..., <a_k,u>], the latter exact ints."""
        if len(u) != self.d:
            raise ValueError("update dimension mismatch")
        v0 = sum(a * x for a, x in zip(self.a0, u)) % _Q
        return [v0] + _exact_products(u, self.rows.T)

    def weighted_combination(self, weights: Sequence[int]) -> list[int]:
        """c_l = sum_t weights[t] * a_tl mod p, for the batch check.

        The row weights, reduced mod p, go through ``_exact_products`` (7
        limbs of 39 bits at the deployment shape), and a_0's part is added.
        """
        if len(weights) != self.k + 1:
            raise ValueError("need one weight per projection row plus a_0")
        bulk = _exact_products([w % _Q for w in weights[1:]], self.rows)
        return [(weights[0] * a + c) % _Q for a, c in zip(self.a0, bulk)]


def _exact_products(xs: Sequence[int], matrix: np.ndarray) -> list[int]:
    """The exact products xs . matrix, as Python ints, for any ints xs.

    Each x is cut into signed limbs of w = 62 - bit_length(len(xs)
    max|matrix|) bits, so a row of limbs times the matrix sums to below
    2^62: one int64 matmul per limb, recombined with shifts.  When every
    x fits one limb, as an update's coordinates do, that matmul is all.
    """
    peak = max(-int(matrix.min(initial=0)), int(matrix.max(initial=0)))
    width = 62 - (len(xs) * peak).bit_length()
    assert width > 0, "CheckParameters bounds M so that a limb has a bit"
    top = max((abs(int(x)) for x in xs), default=0).bit_length()
    if top <= width:
        return (np.asarray(xs, dtype=np.int64) @ matrix).tolist()
    big = np.array([int(x) for x in xs], dtype=object)
    mags, signs = np.abs(big), np.where(big < 0, -1, 1)
    cuts = [(mags >> (width * j)) & ((1 << width) - 1) for j in range(-(-top // width))]
    # limbs @ matrix, in the loop order numpy's int64 matmul runs faster
    partial = (matrix.T @ (np.array(cuts, dtype=np.int64) * signs).T).T.astype(object)
    acc = partial[-1]
    for row in partial[-2::-1]:
        acc = (acc << width) + row
    return acc.tolist()


def sample_matrix(seed: bytes, k: int, d: int, M: int) -> SampleMatrix:
    """Derive the projection matrix for a round from the shared seed.

    a_0 comes from SHAKE-256 (it must be unpredictable enough to bind
    commitments); rows 1..k only need reproducibility and speed, so they
    come from Philox + Box-Muller, rounded half away from zero.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive")
    if M < 1:
        raise ValueError("scale M must be positive")
    shake = hashlib.shake_256(seed + b"/a0").digest(64 * d)
    a0 = tuple(reduce_wide(shake[64 * i : 64 * (i + 1)]) for i in range(d))
    rows = _round_half_away(_gaussian_rows(seed, k, d, M))
    return SampleMatrix(seed=seed, M=M, a0=a0, rows=rows)


def chi_square_quantile(k: int, epsilon: float) -> float:
    """gamma with Pr[chi2_k >= gamma] = epsilon, usable down to 2^-128.

    scipy's inverse regularized upper incomplete gamma resolves the
    extreme tail directly (it works on Q(a, x) = eps rather than on
    1 - eps, so there is no catastrophic cancellation).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be a probability in (0, 1)")
    return float(2.0 * special.gammainccinv(k / 2.0, epsilon))


def fits_fixed_point(x: float, frac_bits: int, b_coord: int, slack: Fraction | int) -> bool:
    """Whether x 2^frac_bits + slack < 2^(b_coord - 1), computed exactly,
    so that no width overflows a float; False for an x that is not
    finite."""
    return math.isfinite(x) and Fraction(x) * (1 << frac_bits) + slack < 1 << (b_coord - 1)


def encoded_bound(B: float, frac_bits: int, d: int) -> int:
    """The L2 bound B in encoded integer units, with quantization slack.

    Rounding each coordinate moves the vector by at most sqrt(d)/2, so
    honest floats with norm <= B always encode within this bound.
    """
    return math.ceil(B * (1 << frac_bits) + math.sqrt(d) / 2.0)


def rounding_norm(k: int, d: int) -> float:
    """min(sqrt(kd), rho(k)): 2 ||E u|| / ||u|| is at most this, except with
    probability 2^-128 when rho(k) is the smaller (see the module
    docstring).  The rounding term is rounding_norm(k, d) / (2M)."""
    x = _TAIL_LOG2 * math.log(2)
    return min(math.sqrt(k * d), math.sqrt(k + 2 * math.sqrt(k * x) + 2 * x))


def rounding_scale(k: int, d: int, gamma: float) -> int:
    """The smallest power of two M whose rounding term
    rounding_norm(k, d)/(2M), in ``compute_b0`` and ``pass_rate_F``, is at
    most 2^-10 of sqrt(gamma).

    M buys only that precision, yet it also sets the projections' size
    (v_t ~ M |u|), and with it the range widths and the digits of the
    server's h.
    """
    M = 1
    while rounding_norm(k, d) / (2.0 * M) > _ROUNDING_SLACK * math.sqrt(gamma):
        M <<= 1
    return M


def compute_b0(b_enc: int, M: int, k: int, d: int, epsilon: float) -> int:
    """Integer threshold for the rounded check: sum_t <a_t,u>^2 <= B0.

    b_enc is the L2 bound already in integer (fixed-point encoded)
    units.  The rounding_norm(k, d)/(2M) term absorbs the rounding drift
    of the matrix entries, so an honest update fails with probability at
    most epsilon + 2^-128 (module docstring).
    """
    gamma = chi_square_quantile(k, epsilon)
    root = math.sqrt(gamma) + rounding_norm(k, d) / (2.0 * M)
    return math.ceil(b_enc * b_enc * M * M * root * root)


def _f(c: float | np.ndarray, k: int, gamma: float, r: float) -> float | np.ndarray:
    """F at a ratio c or an array of them: the chi-square CDF at
    ((sqrt(gamma) + (1 + c) r) / c)^2, r = rounding_norm(k, d)/(2M), plus
    2^-128, through ``special.chdtr`` as ``scipy.stats.chi2.cdf`` runs it."""
    return special.chdtr(k, ((math.sqrt(gamma) + (1.0 + c) * r) / c) ** 2) + _TAIL


def pass_rate_F(c: float, k: int, epsilon: float, d: int, M: int) -> float:
    """An upper bound on the probability that an update of norm c*B
    slips through the check: ``_f`` at one ratio.

    F takes the rounding term r = rounding_norm(k, d)/(2M) (1 + c) times
    on top of sqrt(gamma), while B0 takes it once (``compute_b0``), so F
    is the chi-square CDF at a larger point than the one B0 sets, plus the
    2^-128 with which the rounding bound may fail (module docstring): at
    a derived M it reads above the pass rate (0.588 against 0.576 from
    B0's own point at k=1000, d=64, epsilon=2^-128, c=1.3, M = 2^10), and
    at M = 2^24 the two agree to four digits."""
    if c <= 0:
        raise ValueError("norm ratio c must be positive")
    return float(_f(c, k, chi_square_quantile(k, epsilon), rounding_norm(k, d) / (2.0 * M)))


def max_expected_damage(
    k: int, epsilon: float, d: int, M: int
) -> tuple[float, float]:
    """argmax and max of c * F(c) over c in (1, DAMAGE_SEARCH_CAP], for B = 1.

    c * F(c) bounds the expected norm an attacker sneaks past the check
    by submitting at ratio c, since F is an upper bound on the pass rate
    (``pass_rate_F``); so the max bounds the damage from above.  The
    peak is unimodal but can be extremely narrow (F collapses within a
    few percent of c for large k).  Its maximiser lies between the best
    grid ratio's two neighbours, so three passes of 4,096 ratios find it to
    10^-9 c: a geometric grid over (1, 1000], then twice an even grid over
    that bracket.  Where c * F(c) still rises at the cap (k = 1, whose F
    tends to a floor), c* is the cap.  F's 2^-128 adds c 2^-128 to
    c * F(c), which no float sees at any c the coordinate window allows.
    """
    gamma, r = chi_square_quantile(k, epsilon), rounding_norm(k, d) / (2.0 * M)
    grid = np.geomspace(1.0 + 1e-9, DAMAGE_SEARCH_CAP, 4096)
    for _ in range(3):
        damage = grid * _f(grid, k, gamma, r)
        best = int(np.argmax(damage))
        c_star, peak = grid[best], damage[best]
        grid = np.linspace(grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)], 4096)
    return float(c_star), float(peak)


@dataclass(frozen=True)
class CheckParameters:
    """Everything both sides must agree on for one deployment.

    b_max bounds the slack B0 - sum of squares, b_coord is the signed
    fixed-point width of one update coordinate.  Each projection
    <a_t, u> is bounded by the proof of smallness (``zkp.integrity``),
    whose window T = 2^8 W, W = ceil(sqrt(k B0)), follows from B0.

    Left as None, the Gaussian scale M is derived first, by
    ``rounding_scale``: its rounding slack is at most 2^-10 of sqrt(gamma).
    An honest update within B fails the check with probability at most
    epsilon + 2^-128, the second term for the rounding bound (module
    docstring).

    A row entry is at most 8.572 M + 1/2, so max(k, d) (ceil(8.572 M) + 1)
    < 2^61 leaves ``_exact_products`` a limb of at least one bit for A u
    and b A: M up to 2^51 at k = d = 64, 2^24 at k = 1,000, d = 10^6.

    Left as None, b_max is derived from B0 by ``range_width``: the
    smallest width B0 needs (B0 < 2^b_max) whose odd part is at most 7,
    a slot count the range proof accepts.  An explicit width must meet
    the same conditions.  k (2T)^2 + 2^b_max must stay below the group
    order, so that the sum of squares cannot wrap around it.
    """

    n: int
    m: int
    d: int
    k: int
    epsilon: float
    B: float
    M: int | None = None
    b_max: int | None = None
    frac_bits: int = 8
    b_coord: int = 16

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one client")
        if not 0 <= self.m < self.n / 2:
            raise ValueError("honest majority requires m < n/2")
        if self.d < 1 or self.k < 1:
            raise ValueError("d and k must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if self.M is None:
            object.__setattr__(self, "M", rounding_scale(self.k, self.d, self.gamma))
        if self.M < 1:
            raise ValueError("M must be positive")
        if not 0 < self.B < math.inf:
            raise ValueError(f"B must be positive and finite, got {self.B!r}")
        if self.frac_bits < 0 or self.b_coord < 1:
            raise ValueError("frac_bits must be at least 0 and b_coord at least 1")
        if max(self.k, self.d) * (math.ceil(_MAX_ABS_Z * self.M) + 1) >= 1 << 61:
            raise ValueError(
                f"a {self.k} x {self.d} matrix at M={self.M} leaves no int64 limb "
                "for its exact products: leave M unset to derive it"
            )
        if not fits_fixed_point(self.B, self.frac_bits, self.b_coord, Fraction(1, 2)):
            raise ValueError("B 2^frac_bits does not fit the b_coord fixed-point window")
        if self.b_max is None:
            object.__setattr__(self, "b_max", range_width(self.b0.bit_length()))
        if self.b_max < 1 or slot_shape(self.b_max)[0] > MAX_ODD_PART:
            raise ValueError(f"b_max={self.b_max} needs an odd part of at most {MAX_ODD_PART}")
        if self.b0 >= 1 << self.b_max:
            raise ValueError("B0 overflows b_max bits")
        if self.k * (2 * self.z_bound) ** 2 + (1 << self.b_max) >= _Q:
            raise ValueError("k (2T)^2 + 2^b_max wraps the group order")

    @property
    def threshold(self) -> int:
        """Shamir threshold t = m + 1."""
        return self.m + 1

    @cached_property
    def gamma(self) -> float:
        return chi_square_quantile(self.k, self.epsilon)

    @cached_property
    def b_enc(self) -> int:
        return encoded_bound(self.B, self.frac_bits, self.d)

    @cached_property
    def b0(self) -> int:
        return compute_b0(self.b_enc, self.M, self.k, self.d, self.epsilon)

    @cached_property
    def mask_slack(self) -> int:
        """W = ceil(sqrt(k B0)), which bounds |sum_t R_t v_t| for any 0/1
        vector R and any claim that passes B0 (Cauchy–Schwarz)."""
        return math.isqrt(max(self.k * self.b0 - 1, 0)) + 1

    @property
    def z_bound(self) -> int:
        """T = 2^8 W: the window of the proof of smallness' answers."""
        return self.mask_slack << 8

    @property
    def z_width(self) -> int:
        """w = (2T).bit_length(): the bits of one packed answer z_j + T."""
        return (2 * self.z_bound).bit_length()

    @property
    def range_slots(self) -> int:
        return self.b_max

    @classmethod
    def from_epsilon_log2(cls, epsilon_log2: int, **kwargs) -> "CheckParameters":
        if epsilon_log2 >= 0:
            raise ValueError("epsilon_log2 must be negative")
        return cls(epsilon=2.0**epsilon_log2, **kwargs)
