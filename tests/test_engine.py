import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpaeq.engine import (
    Violation,
    VerificationReport,
    _Game,
    _kind,
    _orbits,
    _win_masses,
    best_response,
    check_affiliation,
    check_monotone,
    is_pbne,
    tie_dp,
    utility,
    verify_mbne,
    verify_pbne,
    win_prob_dfpa,
    win_from_ties,
)
from fpaeq.model import (
    Auction,
    BidSpace,
    BoxDensity,
    DiscretePrior,
    IIDMarginal,
    JumpStrategy,
    MixedStrategy,
    Profile,
    PureStrategy,
    marginal,
    multiplicity,
    support_values,
)
from fpaeq.search import default_jump_grid
from fpaeq.serialize import instance_from_doc, profile_from_doc
from conftest import (
    nested_cube_sapv,
    random_apv_auction,
    random_discrete_auction,
    random_mixed_profile,
    random_monotone_mixed,
    random_rationals,
    random_symmetric_auction,
)
from oracles import (
    enum_utility_dfpa,
    enum_win_prob_dfpa,
    per_seat_report,
    rect_utility_cfpa,
)
from test_cli import SYM3

F = Fraction


def _pure(i, values, bids):
    return PureStrategy(i, dict(zip(values, bids)))


class TestWinProb:
    def test_unopposed_positive_bid_wins(self):
        prior = DiscretePrior(2, [(F(1, 2),), (F(1, 4),)], [((F(1, 2), F(1, 4)), 1)])
        auc = Auction(BidSpace([0, F(1, 8)]), prior)
        opp = Profile([_pure(0, [F(1, 2)], [0]), _pure(1, [F(1, 4)], [0])])
        assert win_prob_dfpa(auc, 0, F(1, 2), F(1, 8), opp) == 1

    def test_two_way_tie_at_zero(self):
        prior = DiscretePrior(2, [(F(1, 2),), (F(1, 4),)], [((F(1, 2), F(1, 4)), 1)])
        auc = Auction(BidSpace([0, F(1, 8)]), prior)
        opp = Profile([_pure(0, [F(1, 2)], [0]), _pure(1, [F(1, 4)], [0])])
        assert win_prob_dfpa(auc, 0, F(1, 2), F(0), opp) == F(1, 2)

    def test_random_instances_match_enumeration(self):
        rng = random.Random(23)
        for _ in range(40):
            auc = random_discrete_auction(rng)
            profile = random_mixed_profile(rng, auc)
            i = rng.randrange(auc.n)
            values = [v for v, m in marginal(auc.prior, i).items() if m > 0]
            v = rng.choice(values)
            b = rng.choice(list(auc.bids))
            assert win_prob_dfpa(auc, i, v, b, profile) == enum_win_prob_dfpa(
                auc, i, v, b, profile
            )

    def test_value_outside_support_rejected(self, prop34):
        opp = Profile(
            [_pure(i, [0, F(1, 2), 1], [0, 0, 0]) for i in range(2)]
        )
        with pytest.raises(ValueError):
            win_prob_dfpa(prop34, 0, F(1, 4), F(0), opp)


class TestTieDP:
    def test_sums_to_no_opponent_above(self):
        rng = random.Random(31)
        for _ in range(50):
            k = rng.randint(1, 4)
            gs, Gs = [], []
            for _ in range(k):
                below = F(rng.randint(0, 3), 6)
                at = F(rng.randint(0, 3), 6)
                if below + at > 1:
                    below, at = below / 2, at / 2
                gs.append(at)
                Gs.append(below)
            total = sum(tie_dp(gs, Gs))
            direct = F(1)
            for g, G in zip(gs, Gs):
                direct *= g + G
            assert total == direct

    def test_empty_opponents(self):
        assert tie_dp([], []) == [1]
        assert win_from_ties([F(1)]) == 1


class TestUtilityDfpa:
    def test_gadget_case2_entries(self):
        from fpaeq.reduction import isolated_gadget, S0, V_LOW, _strategy

        auc, names, scale = isolated_gadget("input")
        hub, lits = names["hub"], names["lits"]
        prof = Profile([_strategy(hub, S0)] + [_strategy(l, S0) for l in lits])
        j = lits[0]
        assert scale * utility(auc, j, V_LOW, F(1, 7), prof, raw=True) == F(
            2231, 8192
        )
        assert scale * utility(auc, j, F(1), F(2, 7), prof, raw=True) == F(5, 7)

    def test_bid_at_value_gives_zero(self, prop34, prop34_nonmonotone):
        assert utility(prop34, 0, F(1, 2), F(1, 2), prop34_nonmonotone) == 0

    def test_mixed_own_bid_averages(self, prop34, prop34_nonmonotone):
        u1 = utility(prop34, 0, F(1, 2), F(3, 10), prop34_nonmonotone)
        u2 = utility(prop34, 0, F(1, 2), F(1, 10), prop34_nonmonotone)
        mix = {F(3, 10): F(1, 3), F(1, 10): F(2, 3)}
        assert utility(prop34, 0, F(1, 2), mix, prop34_nonmonotone) == (
            u1 / 3 + 2 * u2 / 3
        )

    def test_matches_enumeration_oracle(self):
        rng = random.Random(47)
        for _ in range(40):
            auc = random_discrete_auction(rng)
            profile = random_mixed_profile(rng, auc)
            i = rng.randrange(auc.n)
            values = [v for v, m in marginal(auc.prior, i).items() if m > 0]
            v = rng.choice(values)
            b = rng.choice(list(auc.bids))
            assert utility(auc, i, v, b, profile) == enum_utility_dfpa(
                auc, i, v, b, profile
            )
            assert utility(auc, i, v, b, profile, raw=True) == enum_utility_dfpa(
                auc, i, v, b, profile, raw=True
            )


class TestUtilitySymmetric:
    def _symmetric_profile(self, rng, auction):
        groups = auction.prior.groups
        strategies = []
        for g, members in enumerate(groups):
            values = auction.prior.value_spaces[members[0]]
            bids = [rng.choice(list(auction.bids)) for _ in values]
            strategies.append(_pure(g, values, bids))
        return Profile(strategies, groups=groups)

    def test_equals_expansion(self):
        rng = random.Random(59)
        for _ in range(40):
            auc = random_symmetric_auction(rng)
            prof = self._symmetric_profile(rng, auc)
            expanded_auc = Auction(auc.bids, auc.prior.expanded)
            expanded_prof = prof.expand(auc.n)
            for g, members in enumerate(auc.prior.groups):
                i = members[0]
                values = [
                    v
                    for v, m in marginal(auc.prior, i).items()
                    if m > 0
                ]
                for v in values:
                    for b in auc.bids:
                        succinct = utility(auc, i, v, b, prof)
                        direct = utility(
                            expanded_auc, i, v, b, expanded_prof
                        )
                        assert succinct == direct

    def test_single_tuple_tie_case(self):
        sym = DiscretePrior(2, [(F(1, 2),)] * 2, [((F(1, 2), F(1, 2)), 1)], [(0, 1)])
        auc = Auction(BidSpace([0, F(1, 4)]), sym)
        prof = Profile([_pure(0, [F(1, 2)], [F(1, 4)])], groups=[(0, 1)])
        assert utility(auc, 0, F(1, 2), F(1, 4), prof) == F(1, 8)
        assert utility(auc, 0, F(1, 2), F(0), prof) == 0

    def test_per_seat_profile_matches_per_group(self):
        sym = DiscretePrior(2, [(F(1, 2),)] * 2, [((F(1, 2), F(1, 2)), 1)], [(0, 1)])
        auc = Auction(BidSpace([0, F(1, 4)]), sym)
        half = [F(1, 2)]
        per_seat = Profile([_pure(0, half, [F(1, 4)]), _pure(1, half, [F(1, 4)])])
        per_group = Profile([_pure(0, half, [F(1, 4)])], groups=[(0, 1)])
        for b in auc.bids:
            u = utility(auc, 0, F(1, 2), b, per_group)
            assert utility(auc, 0, F(1, 2), b, per_seat) == u


class TestUtilityCfpa:
    def test_uniform_square_jump_opponent(self, uniform_box2):
        # opponent bids 1/2 above value 1/2, else 0; we bid 1/2 at value 3/4:
        # win outright on the lower half, win half the ties on the upper half
        opp = JumpStrategy(uniform_box2.bids, [0, F(1, 2), F(1, 2), 1, 1])
        me = JumpStrategy(uniform_box2.bids, [0, 0, 0, 1, 1])
        prof = Profile([me, opp])
        u = utility(uniform_box2, 0, F(3, 4), F(1, 2), prof)
        assert u == (F(3, 4) - F(1, 2)) * (F(1, 2) + F(1, 2) * F(1, 2))

    def test_opponent_bids_zero_everywhere(self, uniform_box2):
        opp = JumpStrategy(uniform_box2.bids, [0, 1, 1, 1, 1])
        prof = Profile([opp, opp])
        for v in (F(1, 3), F(2, 3)):
            for b in (F(1, 4),):
                assert utility(uniform_box2, 0, v, b, prof) == v - b

    def test_matches_rectangle_oracle(self, two_box_sapv):
        rng = random.Random(61)
        bids = two_box_sapv.bids
        for _ in range(25):
            xs = sorted(F(rng.randint(0, 16), 16) for _ in range(len(bids) - 1))
            xs = [max(x, b) for x, b in zip(xs, list(bids)[1:])]
            strat = JumpStrategy(bids, [F(0)] + sorted(xs) + [F(1)])
            prof = Profile([strat, strat])
            v = F(rng.randint(1, 15), 16)
            b = rng.choice(list(bids))
            assert utility(two_box_sapv, 0, v, b, prof) == rect_utility_cfpa(
                two_box_sapv, 0, v, b, prof
            )

    def test_symmetric_equals_expanded(self, two_box_sapv):
        rng = random.Random(67)
        bids = two_box_sapv.bids
        expanded_prior = BoxDensity(2, two_box_sapv.prior.expanded_boxes, None)
        expanded_auc = Auction(bids, expanded_prior)
        for _ in range(20):
            xs = sorted(
                max(F(rng.randint(0, 16), 16), b) for b in list(bids)[1:]
            )
            strat = JumpStrategy(bids, [F(0)] + xs + [F(1)])
            prof_sym = Profile([strat], groups=[(0, 1)])
            prof = Profile([strat, strat])
            v = F(rng.randint(1, 15), 16)
            b = rng.choice(list(bids))
            assert utility(
                two_box_sapv, 0, v, b, prof_sym
            ) == utility(expanded_auc, 0, v, b, prof)

    def test_degenerate_grouping_matches_plain(self, uniform_box2):
        grouped = BoxDensity(2, uniform_box2.prior.boxes, groups=[(0,), (1,)])
        auc = Auction(uniform_box2.bids, grouped)
        s = JumpStrategy(uniform_box2.bids, [0, F(1, 4), F(1, 2), F(3, 4), 1])
        assert utility(
            auc, 0, F(5, 8), F(1, 4), Profile([s, s], groups=[(0,), (1,)])
        ) == utility(uniform_box2, 0, F(5, 8), F(1, 4), Profile([s, s]))


class TestBestResponse:
    def test_output_gadget_unique_br(self):
        from fpaeq.reduction import isolated_gadget, S0, _strategy
        from fpaeq.model import ZERO

        auc, names, scale = isolated_gadget("out")
        prof = Profile(
            [
                _strategy(names["or2"], S0),
                _strategy(names["k"], (ZERO, ZERO, F(1, 7))),
                _strategy(names["l"], (ZERO, ZERO, F(2, 7))),
            ]
        )
        rep = best_response(auc, names["k"], F(1), prof, raw=True)
        assert rep.argmax == (F(3, 7),)
        assert rep.margin * scale == F(1, 56)

    def test_lowest_winning_bid_against_zeros(self, prop34):
        zeros = Profile(
            [_pure(i, [0, F(1, 2), 1], [0, 0, 0]) for i in range(2)]
        )
        rep = best_response(prop34, 0, F(1), zeros)
        assert rep.argmax == (F(1, 10),)

    def test_zero_value_best_response_is_zero(self, prop34, prop34_nonmonotone):
        rep = best_response(prop34, 0, F(0), prop34_nonmonotone)
        assert rep.argmax == (F(0),)
        assert rep.margin is None  # only bid 0 is admissible at value 0

    def test_margin_sentinel_single_bid_space(self):
        prior = DiscretePrior(2, [(F(1, 2),), (F(1, 2),)], [((F(1, 2), F(1, 2)), 1)])
        auc = Auction(BidSpace([0]), prior)
        prof = Profile([_pure(i, [F(1, 2)], [0]) for i in range(2)])
        rep = best_response(auc, 0, F(1, 2), prof)
        assert rep.argmax == (F(0),)
        assert rep.margin is None

    def test_utility_interim_and_raw(self, prop34, prop34_nonmonotone):
        u = utility(prop34, 0, F(1), F(1, 10), prop34_nonmonotone)
        assert u == F(9, 10)
        raw = utility(prop34, 0, F(1), F(1, 10), prop34_nonmonotone, raw=True)
        assert raw == F(9, 10) * F(1, 3)

    def test_raw_and_interim_agree_on_argmax(self):
        rng = random.Random(71)
        for _ in range(25):
            auc = random_discrete_auction(rng)
            profile = random_mixed_profile(rng, auc)
            i = rng.randrange(auc.n)
            values = [v for v, m in marginal(auc.prior, i).items() if m > 0]
            v = rng.choice(values)
            interim = best_response(auc, i, v, profile)
            raw = best_response(auc, i, v, profile, raw=True)
            assert interim.argmax == raw.argmax


class TestVerify:
    def test_prop34_nonmonotone_is_exact_pbne(self, prop34, prop34_nonmonotone):
        report = verify_pbne(prop34, prop34_nonmonotone, 0)
        assert report.ok and report.max_gain == 0

    def test_all_zero_profile_violates(self, prop34):
        zeros = Profile(
            [_pure(i, [0, F(1, 2), 1], [0, 0, 0]) for i in range(2)]
        )
        report = verify_pbne(prop34, zeros, F(1, 100))
        assert not report.ok
        assert any(v.best_bid == F(1, 10) for v in report.violations)

    def test_exact_pbne_as_degenerate_mixed(self, prop34, prop34_nonmonotone):
        mixed = Profile([s.as_mixed() for s in prop34_nonmonotone.strategies])
        report = verify_mbne(prop34, mixed, 0)
        assert report.ok

    def test_mixed_profile_needs_verify_mbne(self, prop34, prop34_nonmonotone):
        pure = prop34_nonmonotone.strategies
        mixed = Profile([pure[0].as_mixed(), pure[1]])
        for check in (verify_pbne, is_pbne):
            with pytest.raises(TypeError, match="verify_mbne"):
                check(prop34, mixed, 0)
        assert verify_mbne(prop34, mixed, 0) == verify_pbne(prop34, prop34_nonmonotone, 0)

    def test_dominated_mixing_reports_exact_gap(self, prop34):
        # at value 1 the opponent bids 0, so mixing 0 with 1/10 wastes
        # (1 - 1/10) - 1/2 = 2/5 half the time
        rows = {
            F(0): {F(0): F(1)},
            F(1, 2): {F(3, 10): F(1)},
            F(1): {F(0): F(1, 2), F(1, 10): F(1, 2)},
        }
        prof = Profile(
            [MixedStrategy(0, rows), MixedStrategy(1, rows)]
        )
        report = verify_mbne(prop34, prof, 0)
        assert not report.ok
        worst = max(v.gain for v in report.violations if v.value == 1)
        assert worst == (F(9, 10) - (F(9, 10) + F(1, 2)) / 2)

    def test_cfpa_cell_verification(self, uniform_box2):
        # both bid 0 below 1/2 and 1/4 above: a deviation to 1/4 just below
        # the threshold wins the whole lower half for almost nothing
        s = JumpStrategy(uniform_box2.bids, [0, F(1, 2), 1, 1, 1])
        report = verify_pbne(uniform_box2, Profile([s, s]), F(1, 20))
        assert not report.ok

    def test_verify_consistency_with_margins(self):
        rng = random.Random(83)
        for _ in range(15):
            auc = random_discrete_auction(rng)
            profile = random_mixed_profile(rng, auc)
            report = verify_mbne(auc, profile, F(1, 50))
            recomputed = max(
                (v.gain for v in report.violations), default=F(0)
            )
            assert report.ok == (report.max_gain <= F(1, 50))
            if report.violations:
                assert recomputed == report.max_gain


class TestStructuralChecks:
    def test_product_pmf_affiliated(self):
        support = []
        for v1, p1 in [(F(0), F(1, 3)), (F(1, 2), F(2, 3))]:
            for v2, p2 in [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]:
                support.append(((v1, v2), p1 * p2))
        prior = DiscretePrior(2, [(0, F(1, 2)), (F(1, 4), F(3, 4))], support)
        ok, witness = check_affiliation(prior)
        assert ok and witness is None

    def test_prop34_not_affiliated(self, prop34):
        ok, witness = check_affiliation(prop34.prior)
        assert not ok
        a, b = witness
        join = tuple(max(x, y) for x, y in zip(a, b))
        meet = tuple(min(x, y) for x, y in zip(a, b))
        f = prop34.prior.mass
        assert f(join) * f(meet) < f(a) * f(b)
        # the canonical witness pair also violates
        assert f((F(1), F(1))) * f((F(0), F(0))) < f((F(0), F(1))) * f((F(1), F(0)))

    def test_single_tuple_affiliated(self):
        prior = DiscretePrior(2, [(F(1, 2),), (F(1, 2),)], [((F(1, 2), F(1, 2)), 1)])
        assert check_affiliation(prior)[0]

    def test_apv_generator_is_affiliated(self):
        rng = random.Random(89)
        for _ in range(10):
            auc = random_apv_auction(rng)
            assert check_affiliation(auc.prior)[0]

    def test_box_affiliation(self, two_box_sapv, prop34):
        assert check_affiliation(two_box_sapv.prior)[0]
        from fpaeq.reduction import lift_dfpa_to_cfpa

        lifted = lift_dfpa_to_cfpa(prop34, F(1, 64))
        ok, witness = check_affiliation(lifted.cfpa.prior)
        assert not ok and witness is not None

    def test_monotone_checks(self):
        nondecr = PureStrategy(0, {F(0): F(0), F(1, 2): F(1, 10), F(1): F(1, 10)})
        assert check_monotone(nondecr)
        boundary = MixedStrategy(
            0,
            [
                (F(1, 2), [(F(1, 10), F(1, 2)), (F(2, 10), F(1, 2))]),
                (F(1), [(F(2, 10), F(1))]),
            ],
        )
        assert check_monotone(boundary)
        decreasing = PureStrategy(
            0, {F(0): F(0), F(1, 2): F(2, 10), F(1): F(1, 10)}
        )
        assert not check_monotone(decreasing)


class TestOrderProperties:
    """Log-supermodularity of the winning probability and Forward-SCC."""

    def _monotone_profile(self, rng, auc):
        return Profile(
            [random_monotone_mixed(rng, auc, i) for i in range(auc.n)]
        )

    def test_log_supermodular_H(self):
        rng = random.Random(97)
        for _ in range(30):
            auc = random_apv_auction(rng)
            prof = self._monotone_profile(rng, auc)
            i = rng.randrange(auc.n)
            values = sorted(marginal(auc.prior, i))
            bids = list(auc.bids)
            H = {
                (b, v): win_prob_dfpa(auc, i, v, b, prof)
                for b in bids
                for v in values
            }
            for b1, b2 in itertools.combinations(bids, 2):
                for v1, v2 in itertools.combinations(values, 2):
                    lhs = H[(b2, v2)] * H[(b1, v1)]
                    rhs = H[(b1, v2)] * H[(b2, v1)]
                    assert lhs >= rhs

    def test_forward_scc(self):
        rng = random.Random(101)
        for _ in range(30):
            auc = random_apv_auction(rng)
            prof = self._monotone_profile(rng, auc)
            i = rng.randrange(auc.n)
            values = sorted(marginal(auc.prior, i))
            bids = list(auc.bids)
            u = {
                (b, v): utility(auc, i, v, b, prof) for b in bids for v in values
            }
            for bl, bh in itertools.combinations(bids, 2):
                for vl, vh in itertools.combinations(values, 2):
                    if not bh <= vl:
                        continue
                    if u[(bh, vl)] >= u[(bl, vl)]:
                        assert u[(bh, vh)] >= u[(bl, vh)]


# ---------------------------------------------------------------------------
# the win-mass kernel against the plain tie DP and the oracles
# ---------------------------------------------------------------------------

def _row(strategy, v):
    if isinstance(strategy, PureStrategy):
        return {strategy.bid_at(v): F(1)}
    return strategy.row(v)


def _reference_win_masses(auc, profile, i, v):
    """f_i(v) * H(b) per bid: every opponent through tie_dp, no shortcuts."""
    prior = auc.prior
    profile = profile.expand(auc.n)
    out = []
    if auc.is_discrete:
        prior = prior.expanded
        for b in auc.bids:
            acc = F(0)
            for tup, m in prior.support:
                if tup[i] != v:
                    continue
                rows = [_row(profile.strategies[j], x) for j, x in enumerate(tup) if j != i]
                gs = [row.get(b, F(0)) for row in rows]
                Gs = [sum((w for bb, w in row.items() if bb < b), F(0)) for row in rows]
                acc += m * win_from_ties(tie_dp(gs, Gs))
            out.append(acc)
        return out
    if isinstance(prior, IIDMarginal):
        prior = prior.as_box_density(auc.n)
    for jb in range(len(auc.bids)):
        acc = F(0)
        for lo, hi, w in prior.expanded_boxes:
            if not lo[i] <= v <= hi[i]:
                continue
            mass, gs, Gs = w, [], []
            for j in range(auc.n):
                if j != i:
                    s, a, c = profile.strategies[j], lo[j], hi[j]
                    mass *= c - a
                    gs.append(s.mass_at_bid(jb, a, c) / (c - a))
                    Gs.append(s.mass_below_bid(jb, a, c) / (c - a))
            acc += mass * win_from_ties(tie_dp(gs, Gs))
        out.append(acc)
    return out


def _random_pure(rng, bidder, values, bids):
    return PureStrategy(bidder, {v: rng.choice(bids) for v in values})


def _random_mixed(rng, bidder, values, bids):
    rows = {}
    for v in values:
        support = rng.sample(bids, rng.randint(1, min(2, len(bids))))
        rows[v] = dict(zip(support, random_rationals(rng, len(support), den=4)))
    return MixedStrategy(bidder, rows)


def _random_jump(rng, bids):
    xs = sorted(F(rng.randint(0, 8), 8) for _ in range(len(bids) - 1))
    return JumpStrategy(bids, [F(0)] + [max(x, b) for x, b in zip(xs, bids[1:])] + [F(1)])


def _random_iid(rng):
    cuts = sorted(rng.sample([F(k, 8) for k in range(1, 8)], rng.randint(1, 2)))
    bps = [F(0)] + cuts + [F(1)]
    weights = [rng.randint(1, 3) for _ in cuts + [None]]
    total = sum((b - a) * w for a, b, w in zip(bps, bps[1:], weights))
    bids = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], 2))
    return Auction(BidSpace(bids), IIDMarginal(bps, [w / total for w in weights]), 3)


def _discrete_case(rng, kind):
    """(auction, profile, bidders to probe) for a discrete prior kind."""
    if kind == "dfpa":
        auc = random_discrete_auction(rng)
        spaces, seats, groups = auc.prior.value_spaces, range(auc.n), None
    else:
        auc = random_symmetric_auction(rng)
        groups = auc.prior.groups
        spaces, seats = [auc.prior.value_spaces[g[0]] for g in groups], range(len(groups))
    make = rng.choice((_random_pure, _random_mixed))
    bids = list(auc.bids)
    profile = Profile([make(rng, s, spaces[s], bids) for s in seats], groups=groups)
    bidders = [g[0] for g in groups] if groups else range(auc.n)
    return auc, profile, bidders


def _box_case(rng, kind):
    if kind == "iid":
        auc = _random_iid(rng)
    else:
        auc = nested_cube_sapv(rng, n=rng.randint(2, 3))
        if kind == "boxes":
            auc = Auction(auc.bids, BoxDensity(auc.n, auc.prior.expanded_boxes, None))
    bids = list(auc.bids)
    if kind == "grouped":
        return auc, Profile([_random_jump(rng, bids)], groups=auc.prior.groups), [0]
    profile = Profile([_random_jump(rng, bids) for _ in range(auc.n)])
    return auc, profile, range(auc.n)


KERNEL_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestKernelProperties:
    @KERNEL_SETTINGS
    @given(rng=st.randoms(use_true_random=False), kind=st.sampled_from(["dfpa", "symmetric"]))
    def test_discrete_vector_and_utilities(self, rng, kind):
        auc, profile, bidders = _discrete_case(rng, kind)
        game = _Game(auc, profile)
        for i in bidders:
            for v in support_values(auc.prior, i):
                fi, H = game.vector(i, v)
                assert [fi * h for h in H] == _reference_win_masses(auc, profile, i, v)
                for b in auc.bids:
                    assert utility(auc, i, v, b, profile) == enum_utility_dfpa(
                        auc, i, v, b, profile
                    )
        if all(isinstance(s, PureStrategy) for s in profile.strategies):
            assert is_pbne(auc, profile, 0) == verify_pbne(auc, profile, 0).ok

    @KERNEL_SETTINGS
    @given(
        rng=st.randoms(use_true_random=False),
        kind=st.sampled_from(["boxes", "grouped", "iid"]),
    )
    def test_box_vector_and_utilities(self, rng, kind):
        auc, profile, bidders = _box_case(rng, kind)
        game = _Game(auc, profile)
        for i in bidders:
            # grid points hit box faces and jump thresholds; odd 16ths do not
            for v in rng.sample([F(k, 16) for k in range(17)], 3):
                fi, H = game.vector(i, v)
                if fi == 0:
                    continue
                assert [fi * h for h in H] == _reference_win_masses(auc, profile, i, v)
                for b in auc.bids:
                    assert utility(auc, i, v, b, profile) == rect_utility_cfpa(
                        auc, i, v, b, profile
                    )
        assert is_pbne(auc, profile, 0) == verify_pbne(auc, profile, 0).ok

    def test_shortcuts_match_dp(self):
        # at bid 1/4 opponent 1 is surely below, 2 surely ties and 3 splits;
        # at bid 0 opponent 2 is surely above
        half = F(1, 2)
        prior = DiscretePrior(4, [(half,)] * 4, [((half,) * 4, 1)])
        auc = Auction(BidSpace([0, F(1, 4), half]), prior)
        profile = Profile(
            [
                _pure(0, [half], [0]),
                _pure(1, [half], [0]),
                _pure(2, [half], [F(1, 4)]),
                MixedStrategy(3, {half: {F(0): F(1, 3), half: F(2, 3)}}),
            ]
        )
        fi, H = _Game(auc, profile).vector(0, half)
        assert [fi * h for h in H] == _reference_win_masses(auc, profile, 0, half)
        assert [fi * h for h in H] == [0, F(1, 3) / 2, F(1, 3) + F(2, 3) / 2]


# ---------------------------------------------------------------------------
# iid priors: one folded scenario against the k^n product-box expansion
# ---------------------------------------------------------------------------

def _iid_marginal(rng, n):
    """Random normalised marginal on eighths, zero-density pieces included;
    at most 3 positive pieces for n <= 3 and 2 beyond, so the oracle's k^n
    boxes stay few."""
    cuts = sorted(rng.sample([F(k, 8) for k in range(1, 8)], rng.randint(1, 3)))
    bps = [F(0)] + cuts + [F(1)]
    weights = [rng.choice((0, 0, 1, 2, 3)) for _ in cuts + [None]]
    positive = [j for j, w in enumerate(weights) if w]
    for j in positive[3 if n <= 3 else 2:]:
        weights[j] = 0
    if not positive:
        weights[rng.randrange(len(weights))] = 1
    total = sum((b - a) * w for a, b, w in zip(bps, bps[1:], weights))
    return IIDMarginal(bps, [w / total for w in weights])


def _iid_case(rng, n, seats):
    """(iid auction, its box expansion, a jump profile); ``seats`` is "shared"
    (one strategy object), "equal" (equal copies) or "distinct"."""
    marg = _iid_marginal(rng, n)
    bids = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], 2))
    auc = Auction(BidSpace(bids), marg, n)
    oracle = Auction(auc.bids, marg.as_box_density(n))
    s = _random_jump(rng, bids)
    if seats == "shared":
        return auc, oracle, Profile([s] * n)
    if seats == "equal":
        return auc, oracle, Profile([JumpStrategy(bids, s.thresholds) for _ in range(n)])
    return auc, oracle, Profile([_random_jump(rng, bids) for _ in range(n)])


IID_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestIIDFolding:
    @IID_SETTINGS
    @given(
        rng=st.randoms(use_true_random=False),
        n=st.integers(2, 5),
        seats=st.sampled_from(["shared", "equal", "distinct"]),
    )
    def test_matches_box_expansion(self, rng, n, seats):
        auc, oracle, profile = _iid_case(rng, n, seats)
        assert verify_pbne(auc, profile, 0) == verify_pbne(oracle, profile, 0)
        eps = F(rng.randint(0, 4), 16)
        assert is_pbne(auc, profile, eps) == is_pbne(oracle, profile, eps)
        randoms = {F(rng.randint(0, 64), 64) for _ in range(3)}
        for v in sorted(set(auc.prior.breakpoints) | randoms):
            i = rng.randrange(n)
            for b in auc.bids:
                try:
                    expected = utility(oracle, i, v, b, profile)
                except ValueError:  # v outside the marginal's support
                    with pytest.raises(ValueError):
                        utility(auc, i, v, b, profile)
                    continue
                assert utility(auc, i, v, b, profile) == expected
        assert default_jump_grid(auc) == default_jump_grid(oracle)
        assert default_jump_grid(auc, 3) == default_jump_grid(oracle, 3)

    @settings(max_examples=80, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_folded_kernel_matches_dp(self, rng):
        # rows drawn from masses that hit every shortcut (g or G in {0, 1});
        # opponents repeat rows, and repeated keys share one row object
        nbids = 3
        half, third = F(1, 2), F(1, 3)
        choices = [(F(0), F(1)), (F(1), F(0)), (F(0), F(0)), (F(0), half), (third, half)]

        def row():
            pairs = [rng.choice(choices + [tuple(random_rationals(rng, 2, den=6))])
                     for _ in range(nbids)]
            pairs = [(g, G) if g + G <= 1 else (g / 2, G / 2) for g, G in pairs]
            gs, Gs = [g for g, _ in pairs], [G for _, G in pairs]
            return bytes(map(_kind, gs, Gs)), gs, Gs

        table = {key: row() for key in "abc"}
        scenarios = []
        for _ in range(rng.randint(1, 3)):
            keys = rng.choice(["a", "ab", "abc"])
            opponents = tuple(rng.choice(keys) for _ in range(rng.randint(1, 6)))
            scenarios.append((F(rng.randint(1, 5), 7), opponents))

        def win(opps, k):
            rows = [table[o] for o in opps]
            return win_from_ties(tie_dp([r[1][k] for r in rows], [r[2][k] for r in rows]))

        expected = [
            sum((mass * win(opps, k) for mass, opps in scenarios), F(0))
            for k in range(nbids)
        ]
        assert _win_masses(scenarios, table, nbids) == expected


# ---------------------------------------------------------------------------
# integer masses over one denominator: the discrete index and its buckets
# ---------------------------------------------------------------------------

def _integer_kernel_case(rng, kind, mixed):
    """(auction, profile, checked bidders): masses with mixed denominators, a
    single support point of mass 1 (D = 1), or a group-succinct prior."""
    if kind == "symmetric":
        auc = random_symmetric_auction(rng)
        groups = auc.prior.groups
        spaces, seats = [auc.prior.value_spaces[g[0]] for g in groups], range(len(groups))
    else:
        n = rng.randint(2, 3)
        grid = [F(k, 8) for k in range(9)]
        spaces = [tuple(sorted(rng.sample(grid, rng.randint(1, 3)))) for _ in range(n)]
        pool = list(itertools.product(*spaces))
        rng.shuffle(pool)
        if kind == "single":
            support = [(pool[0], F(1))]
        else:
            tuples = pool[: rng.randint(2, 4)]
            raw = [F(rng.randint(1, 4), rng.choice((1, 2, 3, 5, 7))) for _ in tuples]
            support = [(t, w / sum(raw)) for t, w in zip(tuples, raw)]
        bids = [F(0)] + sorted(rng.sample([F(k, 9) for k in range(1, 10)], rng.randint(1, 3)))
        auc = Auction(BidSpace(bids), DiscretePrior(n, spaces, support))
        groups, seats = None, range(n)
    make = _random_mixed if mixed else _random_pure
    profile = Profile([make(rng, s, spaces[s], list(auc.bids)) for s in seats], groups=groups)
    return auc, profile, [g[0] for g in groups] if groups else range(auc.n)


def _enum_report(auc, profile, eps, bidders):
    """The verification report from enum_utility_dfpa at every checked
    bidder, support value and bid."""
    bids = list(auc.bids)
    max_gain, violations = F(0), []
    for i in bidders:
        for v in support_values(auc.prior, i):
            us = [enum_utility_dfpa(auc, i, v, b, profile) for b in bids]
            played = _row(profile.for_bidder(i), v)
            current = sum(w * us[bids.index(b)] for b, w in played.items())
            top = max(us)
            best_bid = bids[us.index(top)] if top > current else None
            gain = max(top, current) - current
            max_gain = max(max_gain, gain)
            if gain > eps:
                violations.append(Violation(i, v, tuple(sorted(played)), best_bid, gain))
    return VerificationReport(not violations, eps, max_gain, tuple(violations))


class TestIntegerKernel:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rng=st.randoms(use_true_random=False),
        kind=st.sampled_from(["mixed-den", "single", "symmetric"]),
        mixed=st.booleans(),
        eps=st.sampled_from([F(0), F(1, 20), F(1, 7)]),
    )
    def test_matches_enumeration_in_fractions(self, rng, kind, mixed, eps):
        auc, profile, bidders = _integer_kernel_case(rng, kind, mixed)
        game = _Game(auc, profile)
        for i in bidders:
            for v in support_values(auc.prior, i):
                fi, H = game.vector(i, v)
                assert all(type(h) is F for h in H)
                assert [fi * h for h in H] == _reference_win_masses(auc, profile, i, v)
                for b in auc.bids:
                    expected = enum_utility_dfpa(auc, i, v, b, profile)
                    u = utility(auc, i, v, b, profile)
                    assert type(u) is F and u == expected
        report = (verify_mbne if mixed else verify_pbne)(auc, profile, eps)
        assert report == _enum_report(auc, profile, eps, bidders)
        assert type(report.max_gain) is F
        assert all(type(x.gain) is F for x in report.violations)


# ---------------------------------------------------------------------------
# one seat per orbit: exchangeable seats playing equal strategies
# ---------------------------------------------------------------------------

# interleaved groups, listed in either order, make a third of the layouts
ORBIT_GROUPS = [
    ((0, 1),), ((0, 1, 2),), ((0, 2), (1,)), ((1,), (0, 2)), ((0, 1), (2,)), ((0,), (1, 2))
]


def _canonical(tup, groups):
    """Each group's entries in non-increasing order over its seats."""
    out = list(tup)
    for g in groups:
        for i, x in zip(g, sorted((tup[i] for i in g), reverse=True)):
            out[i] = x
    return tuple(out)


def _orbit_boxes(rng, kind, groups=None):
    """(box prior, seat classes to share strategies over).  ``grouped``: a
    grouped prior, interleaved groups included, or on ``groups``;
    ``symmetric``: the expansion of a one-group prior; ``asymmetric``: that
    expansion with one image dropped or the weights of two entries swapped."""
    if groups is None:
        groups = rng.choice(ORBIT_GROUPS) if kind == "grouped" else (tuple(range(rng.randint(2, 3))),)
    n = max(i for g in groups for i in g) + 1
    quarters = [F(k, 4) for k in range(5)]
    boxes = []
    for _ in range(rng.randint(1, 2)):
        ivs = _canonical(tuple(tuple(sorted(rng.sample(quarters, 2))) for _ in range(n)), groups)
        boxes.append((tuple(a for a, _ in ivs), tuple(c for _, c in ivs), F(rng.randint(1, 4))))
    prior = BoxDensity(n, boxes, groups)
    if kind != "grouped":
        boxes = list(prior.expanded_boxes)
        if kind == "asymmetric" and len(boxes) > 1:
            j, k = rng.sample(range(len(boxes)), 2)
            if rng.random() < 0.5:
                boxes.pop(j)
            else:
                boxes[j], boxes[k] = (*boxes[j][:2], boxes[k][2]), (*boxes[k][:2], boxes[j][2])
        prior = BoxDensity(n, boxes, None)
    mass = prior.total_mass
    prior = BoxDensity(n, [(lo, hi, w / mass) for lo, hi, w in prior.boxes], prior.groups)
    return prior, groups


def _orbit_discrete(rng, groups=None):
    """A grouped discrete prior, interleaved groups included, or on ``groups``."""
    groups = groups or rng.choice(ORBIT_GROUPS + [((0, 2), (1, 3))])
    n = max(i for g in groups for i in g) + 1
    eighths = [F(k, 8) for k in range(9)]
    values = [tuple(sorted(rng.sample(eighths, rng.randint(1, 2)))) for _ in groups]
    spaces = [None] * n
    for g, vals in zip(groups, values):
        for i in g:
            spaces[i] = vals
    pool = sorted({_canonical(tuple(rng.choice(s) for s in spaces), groups) for _ in range(6)})
    chosen = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    weights = random_rationals(rng, len(chosen))
    support = [(t, w / multiplicity(t, groups)) for t, w in zip(chosen, weights)]
    return DiscretePrior(n, spaces, support, groups)


def _orbit_case(rng, kind, mixed):
    """(auction, per-seat profile): per seat class, one shared strategy,
    equal copies or one strategy per seat.  A DFPA strategy names the class's
    first seat, or its own seat when seats differ."""
    if kind == "discrete":
        prior = _orbit_discrete(rng)
        groups, bids = prior.groups, [F(0)] + sorted(rng.sample([F(k, 9) for k in range(1, 10)], 2))
        make = _random_mixed if mixed else _random_pure

        def strategy(seat, seed):
            return make(random.Random(seed), seat, prior.value_spaces[seat], bids)
    else:
        prior, groups = _orbit_boxes(rng, kind)
        bids = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], 2))

        def strategy(seat, seed):
            return _random_jump(random.Random(seed), bids)
    strategies = [None] * prior.n
    for g in groups:
        mode, seed = rng.choice(["shared", "equal", "distinct"]), rng.random()
        shared = strategy(g[0], seed)
        for i in g:
            if mode == "shared":
                strategies[i] = shared
            elif mode == "equal":
                strategies[i] = strategy(g[0], seed)
            else:
                strategies[i] = strategy(i, rng.random())
    return Auction(BidSpace(bids), prior), Profile(strategies)


class TestOrbits:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        # a seeded random.Random: its draws spread like real ones, so the
        # rare layouts (interleaved groups, violations in two orbits) show up
        rng=st.randoms(use_true_random=True),
        kind=st.sampled_from(["grouped", "symmetric", "asymmetric", "discrete"]),
        mixed=st.booleans(),
        eps=st.sampled_from([F(0), F(1, 20), F(1, 7)]),
    )
    def test_matches_per_seat_verification(self, rng, kind, mixed, eps):
        mixed = mixed and kind == "discrete"
        auc, profile = _orbit_case(rng, kind, mixed)
        report = (verify_mbne if mixed else verify_pbne)(auc, profile, eps)
        assert report == per_seat_report(auc, profile, eps)
        if not mixed:
            assert is_pbne(auc, profile, eps) == report.ok

    def test_interleaved_orbit_reports_seat_major(self):
        # groups {0, 2} and {1} under one strategy: orbits [0, 2] and [1], whose
        # violations interleave by seat
        prior = BoxDensity(3, [((0, 0, 0), (1, 1, 1), 1)], groups=[(0, 2), (1,)])
        bids = [F(0), F(1, 4), F(1, 2)]
        low = JumpStrategy(bids, [0, 1, 1, 1])
        auc = Auction(BidSpace(bids), prior)
        report = verify_pbne(auc, Profile([low, low, low]), 0)
        assert [v.bidder for v in report.violations] == sorted(v.bidder for v in report.violations)
        assert {v.bidder for v in report.violations} == {0, 1, 2}
        assert report == per_seat_report(auc, Profile([low, low, low]), 0)

    def test_duplicate_box_is_not_symmetric(self):
        # A, A and A's mirror image: closed as a set, not as a multiset
        a = ((F(0), F(1, 2)), (F(1, 2), F(1)), F(1))
        mirror = ((F(1, 2), F(0)), (F(1), F(1, 2)), F(1))
        prior = BoxDensity(2, [a, a, mirror])
        assert not prior.permutation_symmetric
        bids = [F(0), F(1, 4), F(1, 2)]
        s = JumpStrategy(bids, [0, F(1, 2), F(3, 4), 1])
        auc = Auction(BidSpace(bids), BoxDensity(2, [(lo, hi, w * 4 / 3) for lo, hi, w in prior.boxes]))
        assert verify_pbne(auc, Profile([s, s]), 0) == per_seat_report(auc, Profile([s, s]), 0)

    def test_equal_maps_under_own_seat_numbers_form_an_orbit(self):
        """Seats 0 and 1 of the SYM3 dfpa-sym instance, loaded as files hold
        them, play equal maps labelled with their own seat numbers: one orbit."""
        auc = instance_from_doc(SYM3)
        low = [{"value": "1/4", "bid": "0"}, {"value": "3/4", "bid": "1/4"}]
        top = [{"value": "1/2", "bid": "1/4"}, {"value": "1", "bid": "1/4"}]
        strategies = [
            {"kind": "pure", "bidder": i, "assignments": pairs}
            for i, pairs in enumerate((low, low, top))
        ]
        profile = profile_from_doc({"kind": "profile", "strategies": strategies})
        assert profile.strategies[0].bidder == 0 and profile.strategies[1].bidder == 1
        assert _orbits(auc, profile) == [[0, 1], [2]]
        assert verify_pbne(auc, profile, 0) == per_seat_report(auc, profile, 0)


# ---------------------------------------------------------------------------
# per-group profiles on grouped priors
# ---------------------------------------------------------------------------

# seat order and out of it; interleaved
PER_GROUP_LAYOUTS = [
    ((0, 1), (2,)), ((2,), (0, 1)), ((1,), (0, 2)), ((0, 2), (1,)), ((1, 2), (0,)),
    ((0, 1, 2),), ((2, 3), (0, 1)), ((1, 3), (0, 2)),
]


def _per_group_case(rng, kind, mixed):
    """(auction, per-group profile) on a grouped prior of ``kind``."""
    groups = rng.choice(PER_GROUP_LAYOUTS)
    if kind == "discrete":
        prior = _orbit_discrete(rng, groups)
        bids = [F(0)] + sorted(rng.sample([F(k, 9) for k in range(1, 10)], 2))
        make = _random_mixed if mixed else _random_pure
        strategies = [make(rng, k, prior.value_spaces[g[0]], bids) for k, g in enumerate(groups)]
    else:
        prior, _ = _orbit_boxes(rng, "grouped", groups)
        bids = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], 2))
        strategies = [_random_jump(rng, bids) for _ in groups]
    return Auction(BidSpace(bids), prior), Profile(strategies, groups)


class TestPerGroupReport:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rng=st.randoms(use_true_random=True),
        kind=st.sampled_from(["discrete", "boxes"]),
        mixed=st.booleans(),
        eps=st.sampled_from([F(0), F(1, 20)]),
    )
    def test_reports_each_groups_first_seat_in_group_order(self, rng, kind, mixed, eps):
        """The per-seat report of the expanded profile, restricted to each
        group's first seat and taken in the prior's group order."""
        mixed = mixed and kind == "discrete"
        auc, profile = _per_group_case(rng, kind, mixed)
        full = per_seat_report(auc, profile.expand(auc.n), eps)
        kept = tuple(x for g in auc.prior.groups for x in full.violations if x.bidder == g[0])
        report = (verify_mbne if mixed else verify_pbne)(auc, profile, eps)
        assert report == VerificationReport(full.ok, eps, full.max_gain, kept)
        assert full.ok == (not kept)
        if not mixed:
            assert is_pbne(auc, profile, eps) == report.ok
