import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpaeq.densify import (
    DEFAULT_EPS,
    PiecewisePoly,
    UnsupportedPrior,
    _ceil_log2,
    affiliation_L,
    approx_invert,
    bid_denseness,
    bounds_profile,
    canonical_beta,
    densify_solve,
    max_order_cdf,
)
from fpaeq.engine import verify_pbne
from fpaeq.model import (
    Auction,
    BidSpace,
    BoxDensity,
    IIDMarginal,
    Profile,
    marginal,
    validate_strategy,
)
from conftest import nested_cube_sapv
from oracles import (
    quad_beta_iid,
    quad_beta_sapv,
    ref_affiliation_L,
    ref_approx_invert,
    ref_ceil_log2,
    ref_beta_iid,
    ref_beta_sapv,
)

F = Fraction
ZERO = F(0)
ONE = F(1)

UNIFORM = IIDMarginal([0, 1], [1])
GRID100 = BidSpace([F(k, 100) for k in range(101)])


def grid_auction(marg, n):
    return Auction(GRID100, marg, n=n)


@pytest.fixture
def two_piece_marginal():
    return IIDMarginal([0, F(1, 2), 1], [F(3, 2), F(1, 2)])


class TestPiecewisePoly:
    def test_eval_integrate_derivative(self):
        # f = y on [0,1/2], f = 1/4 + (y-1/2)^2... use absolute coords: pick
        # pieces y and y^2 - y + 3/4 merely as algebra checks
        p = PiecewisePoly(
            (ZERO, F(1, 2), ONE),
            ((ZERO, ONE), (F(3, 4), -ONE, ONE)),
        )
        assert p(F(1, 4)) == F(1, 4)
        assert p(F(3, 4)) == F(3, 4) - F(3, 4) + F(9, 16) + F(3, 4) - F(3, 4)  # noqa: arithmetic below
        assert p(F(3, 4)) == F(3, 4) + F(-3, 4) + F(9, 16)
        assert p.integrate(0, F(1, 2)) == F(1, 8)
        d = p.derivative()
        assert d(F(1, 4)) == 1
        assert d(F(3, 4)) == -1 + 2 * F(3, 4)

    def test_integral_reversed_orientation(self):
        p = PiecewisePoly((ZERO, ONE), ((ZERO, ONE),))
        assert p.integrate(1, 0) == -F(1, 2)


class TestMaxOrderCdf:
    def test_uniform_square_identity(self, uniform_box2):
        g = max_order_cdf(uniform_box2.prior, F(2, 5))
        for y in (F(0), F(1, 3), F(9, 10), F(1)):
            assert g(y) == y

    def test_uniform_cube_square(self):
        prior = BoxDensity(3, [((0, 0, 0), (1, 1, 1), 1)], None)
        g = max_order_cdf(prior, F(1, 2))
        for y in (F(0), F(1, 4), F(2, 3), F(1)):
            assert g(y) == y * y

    def test_two_box_fixture_against_volumes(self, two_box_sapv):
        prior = two_box_sapv.prior
        v = F(3, 4)  # conditional density: 1/2 on [0,1/2), 5/2 on [1/2,1]
        f1 = F(1, 2) * F(1, 2) + F(5, 2) * F(1, 2)  # = 3/2
        g = max_order_cdf(prior, v)
        for y in (F(1, 8), F(1, 2), F(5, 8), F(9, 10), ONE):
            direct = (
                F(1, 2) * min(y, F(1, 2)) + F(5, 2) * max(ZERO, y - F(1, 2))
            ) / f1
            assert g(y) == direct

    def test_endpoints(self, two_box_sapv):
        g = max_order_cdf(two_box_sapv.prior, F(1, 4))
        assert g(ZERO) == 0
        assert g(ONE) == 1

    def test_outside_support_rejected(self):
        prior = BoxDensity(2, [((F(1, 4), 0), (F(1, 2), 1), 4)], None)
        with pytest.raises(ValueError):
            max_order_cdf(prior, F(3, 4))


class TestEvalBeta:
    def test_uniform_halves(self):
        beta2, beta3 = (canonical_beta(grid_auction(UNIFORM, n)) for n in (2, 3))
        assert beta2(F(1, 2)) == F(1, 4)
        for k in range(1, 11):
            v = F(k, 10)
            assert beta2(v) == v / 2
            assert beta3(v) == 2 * v / 3

    def test_left_end_returns_value(self, two_piece_marginal):
        assert canonical_beta(grid_auction(two_piece_marginal, 2))(ZERO) == ZERO
        gapped = IIDMarginal([0, F(1, 4), 1], [0, F(4, 3)])
        assert gapped.support_left == F(1, 4)
        assert canonical_beta(grid_auction(gapped, 2))(F(1, 4)) == F(1, 4)

    def test_below_support_rejected(self):
        gapped = IIDMarginal([0, F(1, 4), 1], [0, F(4, 3)])
        with pytest.raises(ValueError):
            canonical_beta(grid_auction(gapped, 2))(F(1, 8))

    def test_two_piece_against_quadrature(self, two_piece_marginal):
        beta = canonical_beta(grid_auction(two_piece_marginal, 2))
        assert beta(F(3, 4)) == F(17, 56)
        for x in (0.3, 0.55, 0.75, 0.95):
            exact = float(beta(F(x).limit_denominator(64)))
            quad = quad_beta_iid(two_piece_marginal, 2, float(F(x).limit_denominator(64)))
            assert abs(exact - quad) < 1e-12

    def test_constant_outside_support(self):
        # a zero-density hole: beta is flat across it
        m = IIDMarginal([0, F(1, 4), F(1, 2), 1], [2, 0, 1])
        beta = canonical_beta(grid_auction(m, 2))
        inside = beta(F(1, 4))
        for x in (F(3, 10), F(2, 5), F(1, 2)):
            assert beta(x) == inside
        assert beta(F(3, 4)) > inside

    def test_sapv_zero_at_zero(self, two_box_sapv):
        assert canonical_beta(two_box_sapv)(ZERO) == ZERO

    def test_sapv_single_box_equals_iid(self):
        prior = BoxDensity(3, [((0, 0, 0), (1, 1, 1), 1)], None)
        sapv = canonical_beta(Auction(GRID100, prior))
        iid = canonical_beta(grid_auction(UNIFORM, 3))
        for k in range(1, 10):
            x = F(k, 9)
            assert sapv(x) == iid(x)

    def test_sapv_iid_paths_agree_exactly(self):
        rng = random.Random(5)
        for _ in range(6):
            k = rng.randint(1, 3)
            cuts = sorted(rng.sample([F(j, 8) for j in range(1, 8)], k))
            bps = [ZERO] + cuts + [ONE]
            dens = [F(rng.randint(1, 5)) for _ in range(k + 1)]
            tot = sum((b - a) * d for a, b, d in zip(bps, bps[1:], dens))
            dens = [d / tot for d in dens]
            m = IIDMarginal(bps, dens)
            n = rng.randint(2, 3)
            boxes = BoxDensity(n, m.as_box_density(n).boxes, None)
            iid, sapv = canonical_beta(grid_auction(m, n)), canonical_beta(Auction(GRID100, boxes))
            for _ in range(4):
                x = F(rng.randint(1, 99), 100)
                assert iid(x) == sapv(x)

    def test_two_box_against_nested_quadrature(self, two_box_sapv):
        for x in (F(3, 10), F(3, 5), F(17, 20)):
            exact = float(canonical_beta(two_box_sapv)(x))
            quad = quad_beta_sapv(two_box_sapv.prior, float(x))
            assert abs(exact - quad) < 1e-10

    def test_non_full_support_rejected(self):
        gappy = BoxDensity(
            2,
            [((0, 0), (F(1, 4), F(1, 4)), 8), ((F(1, 2), F(1, 2)), (1, 1), F(15, 4))],
            None,
        )
        # mass: 8/16 + (15/4)(1/4) ... not 1; rescale
        total = gappy.total_mass
        gappy = BoxDensity(
            2, [(lo, hi, w / total) for lo, hi, w in gappy.boxes], None
        )
        with pytest.raises(UnsupportedPrior):
            canonical_beta(Auction(GRID100, gappy))(F(3, 4))

    def test_strictly_increasing_on_support(self, two_box_sapv, two_piece_marginal):
        probes = [F(k, 40) for k in range(1, 41)]
        vals = [canonical_beta(two_box_sapv)(x) for x in probes]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        vals = [canonical_beta(grid_auction(two_piece_marginal, 2))(x) for x in probes]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_differential_equation_residual(self, two_box_sapv):
        # central difference of beta vs (v - beta(v)) g_v(v)/G_v(v): O(h)
        h = F(1, 4096)
        prior = two_box_sapv.prior
        beta = canonical_beta(two_box_sapv)
        for v in (F(1, 4), F(3, 8), F(5, 8), F(7, 8)):
            num = (beta(v + h) - beta(v - h)) / (2 * h)
            g = max_order_cdf(prior, v)
            rhs = (v - beta(v)) * g.derivative()(v) / g(v)
            assert abs(num - rhs) <= h


class TestAffiliationL:
    @pytest.mark.parametrize("seed", range(5))
    def test_l_properties_on_nested_cubes(self, seed):
        rng = random.Random(seed)
        auction = nested_cube_sapv(rng, n=rng.choice([2, 3]))
        prior = auction.prior
        probes = [F(k, 8) for k in range(9)]
        for v in (F(1, 4), F(5, 8), F(7, 8)):
            assert affiliation_L(prior, v, ZERO) == ZERO
            assert affiliation_L(prior, v, v) == ONE
            vals = [affiliation_L(prior, v, y) for y in probes if y <= v]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        # nonincreasing in v for fixed y
        for y in (F(1, 8), F(1, 2)):
            col = [
                affiliation_L(prior, v, y) for v in probes if v >= y and v > 0
            ]
            assert all(b <= a for a, b in zip(col, col[1:]))
        # lower bound by the conditional max-order cdf ratio
        for y in (F(1, 4), F(1, 2), F(3, 4)):
            g = max_order_cdf(prior, y)
            for t in probes:
                if not 0 <= t <= y:
                    continue
                assert affiliation_L(prior, y, t) >= g(t) / g(y)

    def test_concentration_bound(self, two_box_sapv):
        # P(beta(Y) in [beta(v1), beta(v2)] | X = v) <= gamma (beta(v2)-beta(v1))
        prior = two_box_sapv.prior
        gamma = bounds_profile(
            Auction(BidSpace([0, F(1, 2)]), prior)
        ).gamma
        beta = canonical_beta(two_box_sapv)
        probes = [F(k, 10) for k in range(11)]
        for v in (F(1, 5), F(7, 10)):
            g = max_order_cdf(prior, v)
            for v1 in probes:
                for v2 in probes:
                    if v1 >= v2:
                        continue
                    p = g(v2) - g(v1)
                    width = beta(v2) - beta(v1)
                    assert p <= gamma * width


class TestBounds:
    def test_uniform_sapv_bounds(self, uniform_box2):
        b = bounds_profile(uniform_box2)
        assert b.mode == "sapv"
        assert b.phi_lo == b.phi_hi == 1
        assert b.gamma == 2  # 2 (n-1) (phi_hi/phi_lo)^2
        assert b.lipschitz == 1  # (n-1) phi ratio

    def test_iid_bounds(self):
        auc = grid_auction(UNIFORM, 3)
        b = bounds_profile(auc)
        assert b.mode == "iid"
        assert b.gamma == 3  # n * phi_hi
        assert b.lipschitz == 3
        assert b.delta == F(1, 100)

    def test_two_piece_lipschitz(self, two_piece_marginal):
        auc = grid_auction(two_piece_marginal, 2)
        assert bounds_profile(auc).lipschitz == 2 * 1 * 3  # n * (gap ratio) * (density ratio)

    def test_zero_density_piece_allowed_for_iid(self):
        m = IIDMarginal([0, F(1, 4), F(1, 2), 1], [2, 0, 1])
        auc = grid_auction(m, 2)
        assert bounds_profile(auc).lipschitz == 2 * 2 * 2  # gaps 1/4 vs 1/2, p 2 vs 1

    def test_denseness_includes_gap_to_one(self):
        auc = Auction(BidSpace([0, F(1, 2)]), UNIFORM, n=2)
        assert bid_denseness(auc) == F(1, 2)
        auc = Auction(BidSpace([0, F(9, 10)]), UNIFORM, n=2)
        assert bid_denseness(auc) == F(9, 10)


class TestApproxInvert:
    def test_uniform_quarter(self):
        auc = grid_auction(UNIFORM, 2)
        eps = F(1, 10**6)
        s = approx_invert(auc, F(1, 4), eps)
        b = canonical_beta(grid_auction(UNIFORM, 2))(s)
        assert F(1, 4) <= b <= F(1, 4) + 2 * eps
        assert abs(s - F(1, 2)) <= 4 * eps

    def test_left_endpoint_immediate(self):
        gapped = IIDMarginal([0, F(1, 4), 1], [0, F(4, 3)])
        auc = grid_auction(gapped, 2)
        assert approx_invert(auc, F(1, 4), DEFAULT_EPS) == F(1, 4)

    def test_right_endpoint(self):
        auc = grid_auction(UNIFORM, 2)
        s = approx_invert(auc, F(1, 2), F(1, 2**20))
        assert s == 1

    def test_out_of_range_rejected(self):
        auc = grid_auction(UNIFORM, 2)
        with pytest.raises(ValueError):
            approx_invert(auc, F(3, 4), DEFAULT_EPS)

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.one_of(
            st.fractions(min_value=-2, max_value=10**12, max_denominator=10**6),
            st.integers(0, 80).map(lambda k: F(2**k)),  # exact powers of 2
            st.integers(0, 80).map(lambda k: F(2**k) + F(1, 10**9)),
            st.integers(1, 10**12).map(lambda d: 1 + F(1, d)),  # just above 1
        )
    )
    def test_ceil_log2_matches_doubling(self, q):
        assert _ceil_log2(q) == ref_ceil_log2(q)


class TestDensifySolve:
    @pytest.mark.parametrize("n", [2, 3])
    def test_uniform_iid_certificate(self, n):
        auc = grid_auction(UNIFORM, n)
        cert = densify_solve(auc)
        assert cert.bounds.gamma == n
        assert cert.claimed == 2 * n * (F(1, 100) + 2 * DEFAULT_EPS)
        assert cert.measured <= cert.claimed
        assert validate_strategy(cert.strategy, auc).ok
        report = verify_pbne(auc, Profile([cert.strategy] * n), cert.claimed)
        assert report.ok
        # underapproximation against the closed form beta(v) = (n-1)v/n
        for k in range(1, 51):
            v = F(k, 50)
            bt = cert.strategy.bid_at(v)
            b = F(n - 1, n) * v
            assert b - (cert.bounds.delta + 2 * cert.eps_inner) <= bt <= b

    def test_uniform_sapv_box_same_pipeline(self):
        prior = BoxDensity(2, [((0, 0), (1, 1), 1)], None)
        auc = Auction(GRID100, prior)
        cert = densify_solve(auc)
        assert cert.bounds.gamma == 2
        assert cert.measured <= cert.claimed
        for k in range(1, 20):
            v = F(k, 20)
            b = v / 2
            assert b - (cert.bounds.delta + 2 * cert.eps_inner) <= cert.strategy.bid_at(v) <= b

    def test_two_box_sapv_certificate(self, two_box_sapv):
        cert = densify_solve(two_box_sapv)
        assert cert.bounds.gamma == 2 * 1 * (F(5, 2) / F(1, 2)) ** 2
        assert cert.measured <= cert.claimed
        probes = [F(k, 16) for k in range(1, 17)]
        for v in probes:
            b = canonical_beta(two_box_sapv)(v)
            bt = cert.strategy.bid_at(v)
            assert b - (cert.bounds.delta + 2 * cert.eps_inner) <= bt <= b

    def test_degenerate_two_point_bid_space(self):
        auc = Auction(BidSpace([0, 1]), UNIFORM, n=2)
        cert = densify_solve(auc)
        # beta(1) = 1/2 < 1: no positive bid is reachable, the strategy is 0
        assert all(cert.strategy.bid_at(F(k, 10)) == 0 for k in range(11))
        assert cert.measured <= cert.claimed

    def test_non_full_support_sapv_rejected(self):
        gappy = BoxDensity(
            2, [((0, 0), (F(1, 2), F(1, 2)), 4)], None
        )
        auc = Auction(BidSpace([0, F(1, 4)]), gappy)
        with pytest.raises(UnsupportedPrior):
            densify_solve(auc)

    def test_iid_zero_density_pieces_supported(self):
        m = IIDMarginal([0, F(1, 4), F(1, 2), 1], [2, 0, 1])
        auc = Auction(BidSpace([F(k, 20) for k in range(21)]), m, n=2)
        cert = densify_solve(auc)
        assert cert.measured <= cert.claimed
        for k in range(1, 20):
            v = F(k, 20)
            b = canonical_beta(grid_auction(m, 2))(v)
            assert b - (cert.bounds.delta + 2 * cert.eps_inner) <= cert.strategy.bid_at(v) <= b

    def test_nonpositive_eps_rejected_without_in_range_bid(self):
        # beta(1) = 1/2 < 99/100, so no bid reaches the inverter's own check
        auc = Auction(BidSpace([0, F(99, 100)]), UNIFORM, n=2)
        for eps in (0, -1):
            with pytest.raises(ValueError, match="eps must be positive"):
                densify_solve(auc, eps)


BETA_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _random_sapv(rng):
    """Nested-cube prior, n in {2, 3}, grouped or as the plain box list."""
    auc = nested_cube_sapv(rng, n=rng.randint(2, 3))
    if rng.random() < 0.5:
        auc = Auction(auc.bids, BoxDensity(auc.n, auc.prior.expanded_boxes, None))
    return auc


SIXTEENTHS = [F(j, 16) for j in range(1, 16)]


def _random_marginal(rng, cuts):
    """Marginal on 2-4 pieces cut at some of ``cuts``, some of zero density."""
    bps = [ZERO] + sorted(rng.sample(cuts, rng.randint(1, 3))) + [ONE]
    dens = [F(rng.choice([0, 0, 1, 2, 5])) for _ in bps[1:]]
    dens[rng.randrange(len(dens))] = F(rng.randint(1, 4))
    total = sum((b - a) * d for a, b, d in zip(bps, bps[1:], dens))
    return IIDMarginal(bps, [d / total for d in dens])


def _random_iid(rng):
    marg = _random_marginal(rng, SIXTEENTHS)
    bids = [ZERO] + sorted(rng.sample(SIXTEENTHS, 3))
    return Auction(BidSpace(bids), marg, n=rng.randint(2, 3))


def _probes(rng, breakpoints, lo):
    """Breakpoints, 2^-40 dyadics and arbitrary rationals in [lo, 1]."""
    pts = list(breakpoints) + [F(rng.randint(0, 2**40), 2**40) for _ in range(3)]
    for _ in range(3):
        q = rng.randint(1, 10**6)
        pts.append(F(rng.randint(0, q), q))
    return [x for x in pts if x >= lo]


def _reference_beta(auc):
    if isinstance(auc.prior, IIDMarginal):
        return lambda x: ref_beta_iid(auc.prior, auc.n, x)
    return lambda x: ref_beta_sapv(auc.prior, x)


class TestCanonicalBetaProperties:
    @BETA_SETTINGS
    @given(rng=st.randoms(use_true_random=False))
    def test_sapv_beta_and_l_equal_the_recursion(self, rng):
        auc = _random_sapv(rng)
        prior = auc.prior
        beta = canonical_beta(auc)
        xs = _probes(rng, marginal(prior, 0).breakpoints, ZERO)
        for x in xs:
            assert beta(x) == ref_beta_sapv(prior, x)
        for v in rng.sample(xs, 3):
            for y in rng.sample(xs, 3):
                y = min(y, v)
                assert affiliation_L(prior, v, y) == ref_affiliation_L(prior, v, y)

    @BETA_SETTINGS
    @given(rng=st.randoms(use_true_random=False))
    def test_iid_beta_equals_the_piece_sum(self, rng):
        auc = _random_iid(rng)
        marg = auc.prior
        beta = canonical_beta(auc)
        for x in _probes(rng, marg.breakpoints, marg.support_left):
            assert beta(x) == ref_beta_iid(marg, auc.n, x)

    @settings(BETA_SETTINGS, max_examples=10)
    @given(rng=st.randoms(use_true_random=False), kind=st.sampled_from(["sapv", "iid"]))
    def test_thresholds_equal_inversions_of_the_reference(self, rng, kind):
        auc = _random_sapv(rng) if kind == "sapv" else _random_iid(rng)
        cert = densify_solve(auc)
        ref = _reference_beta(auc)
        top = ref(ONE)
        for j, b in enumerate(auc.bids):
            if j and cert.bounds.v_lo <= b <= top:
                expected = ref_approx_invert(auc, b, DEFAULT_EPS, ref)
                assert cert.strategy.thresholds[j] == expected

    @settings(BETA_SETTINGS, max_examples=30)
    @given(
        rng=st.randoms(use_true_random=False),
        kind=st.sampled_from(["sapv", "iid"]),
        eps=st.sampled_from([DEFAULT_EPS, F(1, 1000), F(1, 3**20)]),
    )
    def test_integer_bisection_equals_the_fraction_loop(self, rng, kind, eps):
        """Grid bids, beta at the breakpoints and random bids in range; iid
        marginals with n up to 5 and support ends such as 1/3 or 2/7."""
        if kind == "sapv":
            auc = _random_sapv(rng)
        else:
            marg = _random_marginal(rng, SIXTEENTHS + [F(1, 3), F(2, 3), F(2, 7), F(5, 7)])
            auc = Auction(GRID100, marg, n=rng.randint(2, 5))
        beta, bounds = canonical_beta(auc), bounds_profile(auc)
        lo, top = bounds.v_lo, beta.top
        bids = [b for b in auc.bids if lo <= b <= top]
        bids += [beta(x) for x in marginal(auc.prior, 0).breakpoints if x >= lo]
        bids += [lo + (top - lo) * F(rng.randint(0, q), q) for q in (7, 2**20, 10**9)]
        for b in bids:
            got = approx_invert(auc, b, eps, _beta=beta, _bounds=bounds)
            assert got == ref_approx_invert(auc, b, eps, beta)
