"""Canonical continuous-bid equilibrium and the bid-densification solver.

For symmetric priors the continuous-bid first-price auction has a classical
symmetric equilibrium bidding function

    beta(v) = v - integral_{vlo}^{v} L_v(y) dy,
    L_v(y)  = exp(-integral_y^v g_t(t)/G_t(t) dt),

where G_v is the cdf of the opponents' maximum value conditioned on one's own
value being v.  For piecewise-constant priors everything here is exactly
computable: G_v is a piecewise polynomial of degree <= n-1, L_v is a product
of rational cdf ratios piece by piece, and beta is one rational function per
marginal piece, built once per solve with integer coefficients.  The solver
inverts beta approximately on the instance's discrete bid grid (an exact
bisection that runs in integers, building one Fraction per inversion) and
assembles a monotone step strategy that underapproximates beta; the resulting
profile is an approximate equilibrium of the discrete-bid auction with a
certified bound 2*gamma*(delta + 2*eps).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, lcm

from .model import (
    ONE,
    ZERO,
    Auction,
    BoxDensity,
    IIDMarginal,
    JumpStrategy,
    Profile,
    marginal,
    rat,
)
from . import engine


class UnsupportedPrior(ValueError):
    """Raised when the densification pipeline cannot handle the prior
    (general SAPV without full support is an open problem)."""


# ---------------------------------------------------------------------------
# exact piecewise polynomials
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_mul(a, b):
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO)
        for i in range(n)
    )


def _poly_antiderivative(coeffs):
    return (ZERO,) + tuple(c / (k + 1) for k, c in enumerate(coeffs))


@dataclass(frozen=True)
class PiecewisePoly:
    """Exact piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    Piece j covers [breakpoints[j], breakpoints[j+1]] with coefficients in
    ascending powers of the absolute coordinate.
    """

    breakpoints: tuple[Fraction, ...]
    coeffs: tuple[tuple[Fraction, ...], ...]

    def piece_index(self, x: Fraction) -> int:
        bp = self.breakpoints
        if not bp[0] <= x <= bp[-1]:
            raise ValueError(f"{x} outside [{bp[0]}, {bp[-1]}]")
        for j in range(len(self.coeffs)):
            if x <= bp[j + 1]:
                return j

    def __call__(self, x) -> Fraction:
        x = rat(x)
        return _poly_eval(self.coeffs[self.piece_index(x)], x)

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(
            self.breakpoints,
            tuple(
                tuple((k + 1) * c for k, c in enumerate(cs[1:])) or (ZERO,)
                for cs in self.coeffs
            ),
        )

    def integrate(self, a: Fraction, b: Fraction) -> Fraction:
        a, b = rat(a), rat(b)
        if a > b:
            return -self.integrate(b, a)
        total = ZERO
        bp = self.breakpoints
        for j, cs in enumerate(self.coeffs):
            lo, hi = max(a, bp[j]), min(b, bp[j + 1])
            if lo >= hi:
                continue
            anti = _poly_antiderivative(cs)
            total += _poly_eval(anti, hi) - _poly_eval(anti, lo)
        return total


# ---------------------------------------------------------------------------
# conditional maximum-order-statistic cdf
# ---------------------------------------------------------------------------

def max_order_cdf(boxes: BoxDensity, v) -> PiecewisePoly:
    """Cdf of max of the other bidders' values given own value v (bidder 0).

    G_v(y) = (1/f_1(v)) * sum over boxes containing v on axis 0 of
             w * prod_{i>=1} |[0,y] cap [lo_i, hi_i]|,
    a degree <= n-1 piecewise polynomial in y.
    """
    v = rat(v)
    relevant = [
        (lo, hi, w)
        for lo, hi, w in boxes.expanded_boxes
        if lo[0] <= v <= hi[0] and w > 0
    ]
    f1 = ZERO
    for lo, hi, w in relevant:
        m = w
        for i in range(1, boxes.n):
            m *= hi[i] - lo[i]
        f1 += m
    if f1 == 0:
        raise ValueError(f"value {v} outside marginal support")

    cuts = {ZERO, ONE}
    for lo, hi, _ in relevant:
        cuts.update(lo[1:])
        cuts.update(hi[1:])
    cuts = tuple(sorted(cuts))

    pieces = []
    for c1, c2 in zip(cuts, cuts[1:]):
        total = (ZERO,)
        for lo, hi, w in relevant:
            prod = (w / f1,)
            dead = False
            for i in range(1, boxes.n):
                a, b = lo[i], hi[i]
                if c2 <= a:
                    dead = True
                    break
                if c1 >= b:
                    prod = _poly_mul(prod, (b - a,))
                else:
                    prod = _poly_mul(prod, (-a, ONE))
            if not dead:
                total = _poly_add(total, prod)
        pieces.append(total)
    return PiecewisePoly(cuts, tuple(pieces))


# ---------------------------------------------------------------------------
# canonical equilibrium bidding function
# ---------------------------------------------------------------------------

def _require_symmetric_boxes(prior: BoxDensity) -> None:
    if prior.groups is not None:
        if len(prior.groups) != 1:
            raise UnsupportedPrior("canonical equilibrium needs one symmetric group")
    elif not prior.permutation_symmetric:
        raise UnsupportedPrior("box list is not permutation symmetric")


def _sapv_table(prior: BoxDensity):
    """Full-support marginal breakpoints and, per marginal piece, the max-order
    cdf G_k conditioned on the piece's midpoint; error on zero-density pieces."""
    marg = marginal(prior, 0)
    if any(p <= 0 for p in marg.densities):
        raise UnsupportedPrior(
            "SAPV densification requires full support (zero-density marginal piece)"
        )
    bp = marg.breakpoints
    return bp, [max_order_cdf(prior, Fraction(a + b, 2)) for a, b in zip(bp, bp[1:])]


class CanonicalBeta:
    """beta from the coefficients gs[k] of G_k, the opponents' max-order cdf
    on marginal piece k = (bp_k, bp_k+1].  There beta(x) = x - N_k(x)/G_k(x)
    with N_k = A_k - A_k(bp_k) + G_k(bp_k) T_k, A_k the antiderivative of G_k,
    T_0 = 0 and T_k+1 = N_k(bp_k+1)/G_k(bp_k+1), or 0 where G_k(bp_k+1) = 0
    (L vanishes below).  A piece is kept as P_k = x*G_k - N_k over G_k, both
    scaled to integers by one common denominator and padded to one degree,
    so beta(X/Y) is a ratio of two homogeneous integer Horner sums; G_k > 0
    on the piece.  beta(lo) = lo; ``below`` is the error for x < lo;
    ``top`` is beta(1)."""

    def __init__(self, bp, gs, lo: Fraction, below: str):
        nums, t = [], ZERO
        for k, cs in enumerate(gs):
            anti = _poly_antiderivative(cs)
            nums.append((_poly_eval(cs, bp[k]) * t - _poly_eval(anti, bp[k]),) + anti[1:])
            right = _poly_eval(cs, bp[k + 1])
            t = _poly_eval(nums[k], bp[k + 1]) / right if right else ZERO
        width = max(map(len, nums))
        self.pieces = []  # (right end as p, q; (P_k, G_k) pairs, highest power first)
        for right, cs, ns in zip(bp[1:], gs, nums):
            g = tuple(cs) + (ZERO,) * (width - len(cs))
            nk = ns + (ZERO,) * (width - len(ns))
            ps = [a - b for a, b in zip((ZERO,) + g, nk)]  # g[-1] = 0: x*G_k fits
            d = lcm(*(c.denominator for c in ps + list(g)))
            pairs = tuple(((p * d).numerator, (q * d).numerator) for p, q in zip(ps, g))
            self.pieces.append((right.numerator, right.denominator, pairs[::-1]))
        self.lo, self.below = lo, below
        self.top = self(ONE)

    def scaled(self, X: int, Y: int) -> tuple[int, int]:
        """Y^degree times (P_k, G_k) at X/Y, for X/Y in (bp_k, bp_k+1]."""
        for r, s, pairs in self.pieces:
            if X * s <= r * Y:
                break
        p, g = pairs[0]
        y = 1
        for cp, cg in pairs[1:]:
            y *= Y
            p, g = p * X + cp * y, g * X + cg * y
        return p, g

    def __call__(self, x) -> Fraction:
        x = rat(x)
        if x < self.lo:
            raise ValueError(self.below.format(x=x))
        if x > 1:
            raise ValueError("value outside [0,1]")
        if x == self.lo:
            return self.lo
        return Fraction(*self.scaled(x.numerator, x.denominator))


def _sapv_beta(boxes: BoxDensity):
    _require_symmetric_boxes(boxes)
    bp, gs = _sapv_table(boxes)
    # symmetric prior: G_k's cuts are marginal breakpoints, so one polynomial
    # covers the whole piece
    gs = [g.coeffs[g.piece_index(right)] for g, right in zip(gs, bp[1:])]
    return CanonicalBeta(bp, gs, ZERO, "value outside [0,1]")


def _iid_beta(marg: IIDMarginal, n: int):
    """iid opponents: G = F^(n-1) whatever one's own value, F linear on a
    piece; beta is flat across a zero-density piece."""
    a, vlo = marg.breakpoints, marg.support_left
    gs, f = [], ZERO  # f = F(a_j)
    for j, pj in enumerate(marg.densities):
        gs.append(reduce(_poly_mul, [(f - pj * a[j], pj)] * (n - 1), (ONE,)))
        f += pj * (a[j + 1] - a[j])
    below = f"value {{x}} below the support's left end {vlo}"
    return CanonicalBeta(a, gs, vlo, below)


def canonical_beta(auction: Auction) -> CanonicalBeta:
    """The canonical symmetric equilibrium bid as a callable beta(x), built
    once as one exact rational function per marginal piece."""
    prior = auction.prior
    if isinstance(prior, IIDMarginal):
        return _iid_beta(prior, auction.n)
    if isinstance(prior, BoxDensity):
        return _sapv_beta(prior)
    raise TypeError("canonical equilibrium applies to continuous instances")


def eval_beta(auction: Auction, x) -> Fraction:
    return canonical_beta(auction)(x)


def affiliation_L(boxes: BoxDensity, v, y) -> Fraction:
    """Exact L_v(y) for a full-support box prior: g_t/G_t is the log-derivative
    of G_k on marginal piece k, so L_v(y) telescopes into G_k ratios at y, the
    breakpoints between and v, and is 0 once a G_k vanishes at a right end."""
    v, y = rat(v), rat(y)
    if not 0 <= y <= v <= 1:
        raise ValueError("need 0 <= y <= v <= 1")
    bp, gs = _sapv_table(boxes)
    if v == 0:
        return ONE if y == v else ZERO
    k = bisect_left(bp, v) - 1
    j = min(bisect_right(bp, y) - 1, k)
    out = gs[j](y) / gs[k](v)
    for mu in range(j, k):
        right = gs[mu](bp[mu + 1])
        if right == 0:
            return ZERO
        out *= gs[mu + 1](bp[mu + 1]) / right
    return out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsProfile:
    mode: str  # "iid" | "sapv"
    phi_lo: Fraction | None  # joint density lower bound (sapv only)
    phi_hi: Fraction  # density upper bound (joint for sapv, marginal for iid)
    gamma: Fraction  # concentration constant of the equilibrium bid of Y1
    lipschitz: Fraction  # upper bound on beta'
    v_lo: Fraction  # left end of the marginal support
    delta: Fraction  # bid-space denseness: max gap of B union {1}


def bid_denseness(auction: Auction) -> Fraction:
    pts = sorted(set(auction.bids) | {ONE})
    return max(b - a for a, b in zip(pts, pts[1:]))


def _sapv_density_range(prior: BoxDensity) -> tuple[Fraction, Fraction]:
    densities = [d for _, d in prior.cell_densities]
    return min(densities), max(densities)


def bounds_profile(auction: Auction) -> BoundsProfile:
    prior = auction.prior
    n = auction.n
    if isinstance(prior, IIDMarginal):
        a, p = prior.breakpoints, prior.densities
        pos = [q for q in p if q > 0]
        gaps = [a[j + 1] - a[j] for j in range(len(p))]
        phi_hi = max(p)
        return BoundsProfile(
            mode="iid",
            phi_lo=None,
            phi_hi=phi_hi,
            gamma=n * phi_hi,
            lipschitz=n * (max(gaps) / min(gaps)) * (max(pos) / min(pos)),
            v_lo=prior.support_left,
            delta=bid_denseness(auction),
        )
    if isinstance(prior, BoxDensity):
        _require_symmetric_boxes(prior)
        phi_lo, phi_hi = _sapv_density_range(prior)
        if phi_lo <= 0:
            raise UnsupportedPrior(
                "SAPV densification requires a (phi_lo, phi_hi)-bounded prior "
                "with full support"
            )
        return BoundsProfile(
            mode="sapv",
            phi_lo=phi_lo,
            phi_hi=phi_hi,
            gamma=2 * (n - 1) * (phi_hi / phi_lo) ** 2,
            lipschitz=(n - 1) * phi_hi / phi_lo,
            v_lo=ZERO,
            delta=bid_denseness(auction),
        )
    raise TypeError("continuous instances only")


# ---------------------------------------------------------------------------
# approximate inverter and the solver
# ---------------------------------------------------------------------------

def _ceil_log2(q: Fraction) -> int:
    """The least k >= 0 with 2^k >= q."""
    return (ceil(q) - 1).bit_length() if q > 1 else 0


def approx_invert(auction: Auction, b, eps, _beta=None, _bounds=None) -> Fraction:
    """Value s with beta(s) in [b, b + 2*eps], by bisection on the exact beta;
    stops when the bracketing beta-gap closes below eps, with a
    Lipschitz-derived iteration cap as a termination backstop.

    The loop is integer-only: with vlo = a/c, the bracket at depth d is
    (a*2^d + (c-a)*j) / (c*2^d) for j - 1 and j, beta at its ends is kept as
    unreduced ratios of ``CanonicalBeta.scaled`` sums, and each test is
    cross-multiplied, which is exact because every denominator is positive."""
    b, eps = rat(b), rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    beta = _beta or canonical_beta(auction)
    bounds = _bounds or bounds_profile(auction)
    vlo = bounds.v_lo
    beta_lo, beta_hi = beta(vlo), beta.top
    if b < beta_lo or b > beta_hi:
        raise ValueError(f"bid {b} outside the bidding range [{beta_lo}, {beta_hi}]")
    if b == beta_lo:
        return vlo
    cap = _ceil_log2(bounds.lipschitz * (ONE - vlo) / eps) + 2
    a, c = vlo.numerator, vlo.denominator
    bn, bd, en, ed = b.numerator, b.denominator, eps.numerator, eps.denominator
    plo, glo = beta_lo.numerator, beta_lo.denominator
    phi, ghi = beta_hi.numerator, beta_hi.denominator
    j, scale = 1, 1  # hi is (a*scale + (c-a)*j) / (c*scale), scale = 2^d
    for _ in range(cap):
        if (phi * glo - plo * ghi) * ed <= en * ghi * glo:
            break
        j, scale = 2 * j - 1, 2 * scale
        pm, gm = beta.scaled(a * scale + (c - a) * j, c * scale)
        if pm * bd >= bn * gm:
            phi, ghi = pm, gm
        else:
            plo, glo = pm, gm
            j += 1
    return Fraction(a * scale + (c - a) * j, c * scale)


@dataclass(frozen=True)
class DensifyCertificate:
    strategy: JumpStrategy
    eps_inner: Fraction
    bounds: BoundsProfile
    claimed: Fraction  # 2 * gamma * (delta + 2 * eps_inner)
    measured: Fraction  # worst deviation gain from exact verification


DEFAULT_EPS = Fraction(1, 2**40)


def densify_solve(auction: Auction, eps=DEFAULT_EPS) -> DensifyCertificate:
    """Assemble the monotone step strategy that underapproximates the
    canonical equilibrium on the instance's bid grid and certify it.

    Thresholds are approximate inverses of the in-range bids; bids below the
    support's image never fire and bids above it are excluded.  The claimed
    bound is 2*gamma*(delta + 2*eps); the measured bound is the exact worst
    deviation gain of the symmetric profile, computed by the engine.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    bounds = bounds_profile(auction)
    beta = canonical_beta(auction)
    beta_one = beta.top
    vlo = bounds.v_lo
    bids = auction.bids
    m = len(bids)

    in_range = [j for j in range(1, m) if vlo <= bids[j] <= beta_one]
    if in_range:
        m_lo, m_hi = in_range[0], in_range[-1]
        s = {}
        prev = vlo
        for j in in_range:
            sj = approx_invert(auction, bids[j], eps, _beta=beta, _bounds=bounds)
            prev = max(prev, sj)  # monotone backstop; a no-op for sane eps
            s[j] = prev
        thresholds = (
            [ZERO]
            + [bids[j] for j in range(1, m_lo)]
            + [s[j] for j in in_range]
            + [ONE] * (m - m_hi)
        )
    else:
        thresholds = [ZERO] + [ONE] * m
    strategy = JumpStrategy(bids, thresholds)

    claimed = 2 * bounds.gamma * (bounds.delta + 2 * eps)
    profile = Profile([strategy] * auction.n)
    measured = engine.verify_pbne(auction, profile, claimed).max_gain
    return DensifyCertificate(
        strategy=strategy,
        eps_inner=eps,
        bounds=bounds,
        claimed=claimed,
        measured=measured,
    )
