"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's computational paths: utilities are
obtained by brute-force enumeration over outcomes (not the tie DP), CFPA
utilities by rectangle-arrangement geometry, and continuous-bid equilibrium
values by adaptive numerical quadrature.  The exact canonical bid and L are
also kept as the per-call recursions that re-derive every piece from the
prior, the references for the densify module's once-built tables, and the
searches as the per-candidate walk that verifies every candidate afresh, the
reference for the search module's shared deviation tables, and the beta
bisection as the Fraction loop, the reference for the integer-only one.
Verification is also kept seat by seat, the reference for the engine's one
seat per orbit, and the symmetry of a box list as its n! images, the
reference for the adjacent-transposition check.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from fractions import Fraction

from fpaeq.model import (
    Auction,
    BoxDensity,
    DiscretePrior,
    JumpStrategy,
    Profile,
    PureStrategy,
    support_values,
)
from fpaeq.engine import (
    VerificationReport,
    Violation,
    _Game,
    bidder_deviations,
    verify_pbne,
)
from fpaeq.search import SearchResult, _bid_choices, _fill_strategy, _jump_vectors
from fpaeq.serialize import dumps, profile_to_doc

ZERO = Fraction(0)
ONE = Fraction(1)


def ex_post(i_bid: Fraction, opp_bids, value: Fraction) -> Fraction:
    """Uniform tie-breaking ex-post utility of the bidder with bid i_bid."""
    top = max([i_bid, *opp_bids])
    if i_bid < top:
        return ZERO
    ties = 1 + sum(1 for b in opp_bids if b == top)
    return Fraction(value - i_bid, ties)


def _row(strategy, v):
    if isinstance(strategy, PureStrategy):
        return {strategy.bid_at(v): ONE}
    return strategy.row(v)


def enum_utility_dfpa(
    auction: Auction, i: int, v: Fraction, bid: Fraction, opponents: Profile,
    raw: bool = False,
) -> Fraction:
    """Full enumeration over opponent value tuples and bid tuples."""
    prior = auction.prior.expanded
    assert isinstance(prior, DiscretePrior)
    opponents = opponents.expand(auction.n)
    total = ZERO
    fi = ZERO
    for tup, m in prior.support:
        if tup[i] != v:
            continue
        fi += m
        rows = [
            sorted(_row(opponents.strategies[j], tup[j]).items())
            for j in range(prior.n)
            if j != i
        ]
        for combo in itertools.product(*rows):
            prob = m
            for _, w in combo:
                prob *= w
            if prob == 0:
                continue
            total += prob * ex_post(bid, [b for b, _ in combo], v)
    if fi == 0:
        raise ValueError("value outside support")
    return total if raw else total / fi


def enum_win_prob_dfpa(auction, i, v, bid, opponents) -> Fraction:
    """Enumeration analogue of the win probability (value term factored out)."""
    prior = auction.prior.expanded
    opponents = opponents.expand(auction.n)
    total = ZERO
    fi = ZERO
    for tup, m in prior.support:
        if tup[i] != v:
            continue
        fi += m
        rows = [
            sorted(_row(opponents.strategies[j], tup[j]).items())
            for j in range(prior.n)
            if j != i
        ]
        for combo in itertools.product(*rows):
            prob = m
            for _, w in combo:
                prob *= w
            if prob == 0:
                continue
            opp = [b for b, _ in combo]
            top = max([bid, *opp])
            if bid == top:
                total += prob / (1 + sum(1 for b in opp if b == top))
    return total / fi


def rect_utility_cfpa(
    auction: Auction, i: int, v: Fraction, bid: Fraction, opponents: Profile
) -> Fraction:
    """Rectangle-arrangement oracle: cut every opponent edge at the
    opponent's jump thresholds; each sub-rectangle has a deterministic bid
    vector and uniform probability mass."""
    prior = auction.prior
    if hasattr(prior, "as_box_density") and not isinstance(prior, BoxDensity):
        prior = prior.as_box_density(auction.n)
    opponents = opponents.expand(auction.n)
    total = ZERO
    fi = ZERO
    for lo, hi, w in prior.expanded_boxes:
        if not lo[i] <= v <= hi[i]:
            continue
        vol = ONE
        for j in range(prior.n):
            if j != i:
                vol *= hi[j] - lo[j]
        if vol == 0:
            continue
        fi += w * vol
        pieces_per_opp = []
        for j in range(prior.n):
            if j == i:
                continue
            strat = opponents.strategies[j]
            assert isinstance(strat, JumpStrategy)
            cuts = sorted(
                {lo[j], hi[j], *(x for x in strat.thresholds if lo[j] < x < hi[j])}
            )
            pieces = []
            for a, c in zip(cuts, cuts[1:]):
                pieces.append((c - a, strat.bid_at(Fraction(a + c, 2))))
            pieces_per_opp.append(pieces)
        for combo in itertools.product(*pieces_per_opp):
            mass = w
            for length, _ in combo:
                mass *= length
            total += mass * ex_post(bid, [b for _, b in combo], v)
    return total / fi


def all_pure_profiles(auction: Auction, monotone: bool, values_per_bidder):
    """Recursive generator of no-overbidding pure profiles (test-side twin of
    the search module's enumerator)."""
    bids = list(auction.bids)

    def maps_for(values):
        def rec(k, prefix):
            if k == len(values):
                yield tuple(prefix)
                return
            for b in bids:
                if b > values[k]:
                    continue
                if monotone and prefix and b < prefix[-1]:
                    continue
                yield from rec(k + 1, prefix + [b])

        return list(rec(0, []))

    per_bidder = [maps_for(vals) for vals in values_per_bidder]
    for combo in itertools.product(*per_bidder):
        yield combo


def ref_search(auction: Auction, cfg, kind: str, log=None, grid=None) -> SearchResult:
    """The searches' lexicographic walk with every candidate built afresh and
    run through ``verify_pbne``, logging one ``digest pass|fail max_gain``
    line per candidate.  ``kind`` is "pure" (per bidder), "symmetric" (per
    group, discrete) or "jump" (``grid`` thresholds, per group when
    ``cfg.symmetric``)."""
    prior = auction.prior
    groups = None
    if kind == "jump":
        if cfg.symmetric:
            groups = getattr(prior, "groups", None) or (tuple(range(auction.n)),)
        vectors = list(_jump_vectors(auction.bids, grid))
        choices = [vectors] * (len(groups) if groups else auction.n)

        def make(s, x):
            return JumpStrategy(auction.bids, x)
    else:
        if kind == "symmetric":
            groups = prior.groups
            reps = [g[0] for g in groups]
            spaces = [prior.value_spaces[i] for i in reps]
        else:
            spaces, reps = prior.value_spaces, range(auction.n)
        supp = [support_values(prior, i) for i in reps]
        choices = [_bid_choices(values, auction.bids, cfg) for values in supp]

        def make(s, choice):
            return _fill_strategy(s, spaces[s], supp[s], choice)

    checked = 0
    for combo in itertools.product(*choices):
        profile = Profile([make(s, c) for s, c in enumerate(combo)], groups=groups)
        checked += 1
        report = verify_pbne(auction, profile, cfg.eps)
        if log is not None:
            doc = dumps(profile_to_doc(profile))
            digest = hashlib.sha256(doc.encode()).hexdigest()[:12]
            log.write(f"{digest} {'pass' if report.ok else 'fail'} {report.max_gain}\n")
        if report.ok:
            return SearchResult("found", profile, checked)
    return SearchResult("none", None, checked)


def quad_beta_iid(marginal, n: int, x: float, dps: int = 30) -> float:
    """Numerical quadrature of the iid canonical bid via mpmath."""
    import mpmath as mp

    mp.mp.dps = dps
    a = [float(t) for t in marginal.breakpoints]
    p = [float(q) for q in marginal.densities]

    def F(t):
        acc = mp.mpf(0)
        for j, q in enumerate(p):
            if t <= a[j]:
                break
            acc += q * (min(t, a[j + 1]) - a[j])
        return acc

    Fx = F(x) ** (n - 1)
    pieces = [t for t in a if t < x] + [x]
    integral = mp.mpf(0)
    for lo, hi in zip(pieces, pieces[1:]):
        integral += mp.quad(lambda t: F(t) ** (n - 1), [lo, hi])
    return float(x - integral / Fx)


def quad_beta_sapv(prior: BoxDensity, x: float, dps: int = 30) -> float:
    """Quadrature of beta(v) = v - int_0^v L_v(y) dy.

    Inside a marginal piece the density ratio g_t(t)/G_t(t) is the exact
    log-derivative of that piece's conditional max-order cdf, so the inner
    integral telescopes to log differences per piece; the outer integral of
    exp(-...) is evaluated numerically.  Independent of the production path,
    which never forms L pointwise and integrates polynomials exactly.
    """
    import mpmath as mp

    from fpaeq.densify import max_order_cdf
    from fpaeq.model import marginal

    mp.mp.dps = dps
    marg = marginal(prior, 0)
    bps = [float(t) for t in marg.breakpoints]
    reps = [
        Fraction(a + b, 2)
        for a, b in zip(marg.breakpoints, marg.breakpoints[1:])
    ]
    gs = [max_order_cdf(prior, r) for r in reps]

    def G(piece, t):
        tq = Fraction(float(t)).limit_denominator(10**15)
        return mp.mpf(float(gs[piece](tq)))

    def L(y, v):
        # exp(-int_y^v g_t(t)/G_t(t) dt), with the integral summed piecewise
        # as log G differences
        acc = mp.mpf(0)
        for j in range(len(reps)):
            lo = max(y, bps[j])
            hi = min(v, bps[j + 1])
            if lo >= hi:
                continue
            acc += mp.log(G(j, hi)) - mp.log(G(j, lo))
        return mp.e ** (-acc)

    cuts = [t for t in bps if t < x] + [x]
    integral = mp.mpf(0)
    for lo, hi in zip(cuts, cuts[1:]):
        integral += mp.quad(lambda y: L(y, x), [lo, hi])
    return float(x - integral)


def _full_support_breakpoints(boxes: BoxDensity):
    from fpaeq.densify import UnsupportedPrior
    from fpaeq.model import marginal

    marg = marginal(boxes, 0)
    if any(p <= 0 for p in marg.densities):
        raise UnsupportedPrior(
            "SAPV densification requires full support (zero-density marginal piece)"
        )
    return marg.breakpoints


def ref_beta_sapv(boxes: BoxDensity, x) -> Fraction:
    """Exact canonical bid x minus the integral of L_x over [0, x], folding
    the pieces below x from the top piece down."""
    from fpaeq.densify import _require_symmetric_boxes, max_order_cdf

    x = Fraction(x)
    _require_symmetric_boxes(boxes)
    bp = _full_support_breakpoints(boxes)
    if x < 0 or x > 1:
        raise ValueError("value outside [0,1]")
    if x == 0:
        return ZERO
    k_v = next(j for j in range(len(bp) - 1) if bp[j] < x <= bp[j + 1])
    reps = [Fraction(bp[j] + bp[j + 1], 2) for j in range(len(bp) - 1)]
    gs = [max_order_cdf(boxes, reps[j]) for j in range(k_v + 1)]
    g_top = gs[k_v]
    gx = g_top(x)
    integral = g_top.integrate(bp[k_v], x) / gx
    l_at = g_top(bp[k_v]) / gx  # L_x at the top piece's left endpoint
    for kappa in range(k_v - 1, -1, -1):
        g = gs[kappa]
        right = g(bp[kappa + 1])
        if right == 0:
            break  # everything below contributes zero (L vanishes)
        integral += g.integrate(bp[kappa], bp[kappa + 1]) / right * l_at
        l_at *= g(bp[kappa]) / right
    return x - integral


def ref_affiliation_L(boxes: BoxDensity, v, y) -> Fraction:
    """Exact L_v(y) by the same top-down recursion as ref_beta_sapv."""
    from fpaeq.densify import max_order_cdf

    v, y = Fraction(v), Fraction(y)
    if not 0 <= y <= v <= 1:
        raise ValueError("need 0 <= y <= v <= 1")
    bp = _full_support_breakpoints(boxes)
    if v == 0:
        return ONE if y == v else ZERO
    k_v = next(j for j in range(len(bp) - 1) if bp[j] < v <= bp[j + 1])
    reps = [Fraction(bp[j] + bp[j + 1], 2) for j in range(len(bp) - 1)]
    g_top = max_order_cdf(boxes, reps[k_v])
    if y >= bp[k_v]:
        return g_top(y) / g_top(v)
    l_at = g_top(bp[k_v]) / g_top(v)
    for kappa in range(k_v - 1, -1, -1):
        g = max_order_cdf(boxes, reps[kappa])
        right = g(bp[kappa + 1])
        if right == 0:
            return ZERO
        if y >= bp[kappa]:
            return g(y) / right * l_at
        l_at *= g(bp[kappa]) / right
    return l_at


def ref_beta_iid(marg, n: int, x) -> Fraction:
    """Exact iid canonical bid x - integral_0^x F^(n-1) / F(x)^(n-1), summed
    piece by piece from the marginal cdf; flat across zero-density pieces."""
    x = Fraction(x)
    a, p = marg.breakpoints, marg.densities
    vlo = marg.support_left
    if x < vlo:
        raise ValueError(f"value {x} below the support's left end {vlo}")
    if x == vlo:
        return vlo
    j = next(k for k in range(len(p)) if a[k] < x <= a[k + 1])
    if p[j] == 0:
        # constant outside the support: last in-support breakpoint before x
        j = max(k for k in range(len(p)) if p[k] > 0 and a[k + 1] <= x)
        x = a[j + 1]
    Fx = marg.cdf(x)
    acc = ZERO
    for k in range(j):
        Fl, Fr = marg.cdf(a[k]), marg.cdf(a[k + 1])
        if p[k] > 0:
            acc += (Fr**n - Fl**n) / (n * p[k])
        else:
            acc += (a[k + 1] - a[k]) * Fl ** (n - 1)
    acc += (Fx**n - marg.cdf(a[j]) ** n) / (n * p[j])
    return x - acc / Fx ** (n - 1)


def ref_approx_invert(auction: Auction, b, eps, beta) -> Fraction:
    """The bisection of ``densify.approx_invert`` on Fractions, for any
    callable beta: halve [vlo, 1] at its exact midpoint until the bracketing
    beta-gap closes below eps or the Lipschitz-derived cap runs out."""
    from fpaeq.densify import bounds_profile

    b, eps = Fraction(b), Fraction(eps)
    bounds = bounds_profile(auction)
    vlo = bounds.v_lo
    beta_lo, beta_hi = beta(vlo), beta(ONE)
    if b < beta_lo or b > beta_hi:
        raise ValueError(f"bid {b} outside the bidding range [{beta_lo}, {beta_hi}]")
    if b == beta_lo:
        return vlo
    cap = ref_ceil_log2(bounds.lipschitz * (ONE - vlo) / eps) + 2
    lo, hi = vlo, ONE
    for _ in range(cap):
        if beta_hi - beta_lo <= eps:
            break
        mid = Fraction(lo + hi, 2)
        bm = beta(mid)
        if bm >= b:
            hi, beta_hi = mid, bm
        else:
            lo, beta_lo = mid, bm
    return hi


def ref_ceil_log2(q: Fraction) -> int:
    """The least k >= 0 with 2^k >= q, by doubling: the reference for
    ``densify._ceil_log2``."""
    if q <= 1:
        return 0
    k, t = 0, 1
    while t < q:
        t *= 2
        k += 1
    return k


def ref_permutation_symmetric(prior: BoxDensity) -> bool:
    """Every one of the n! coordinate permutations maps the box list, as a
    multiset, onto itself: the reference for the transposition check of
    ``BoxDensity.permutation_symmetric``."""
    boxes = Counter(prior.expanded_boxes)
    return all(
        Counter(
            (tuple(lo[k] for k in perm), tuple(hi[k] for k in perm), w)
            for lo, hi, w in prior.expanded_boxes
        ) == boxes
        for perm in itertools.permutations(range(prior.n))
    )


def per_seat_report(auction: Auction, profile: Profile, eps) -> VerificationReport:
    """The verification report with every seat's deviations computed and
    compared on their own, seat by seat: the reference for the engine's one
    seat per orbit.  The profile is taken per seat."""
    eps = Fraction(eps)
    profile = profile.expand(auction.n)
    max_gain, violations = ZERO, []
    for i in range(auction.n):
        game = _Game(auction, profile)
        for record in bidder_deviations(auction, game, i, profile.strategies[i]):
            max_gain = max(max_gain, record[-1])
            if record[-1] > eps:
                violations.append(Violation(*record))
    return VerificationReport(not violations, eps, max_gain, tuple(violations))
