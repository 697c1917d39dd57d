import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    conditional,
    marginal,
    marginal_mass,
    multiplicity,
    rat,
    validate_instance,
    validate_profile,
    validate_strategy,
)
from conftest import random_discrete_auction, random_symmetric_auction
from oracles import ref_permutation_symmetric

F = Fraction
Q, H, G = F(1, 4), F(3, 4), [(0, 1)]


class TestRationals:
    def test_parse_forms(self):
        assert rat("3/4") == F(3, 4)
        assert rat("7") == 7
        assert rat(F(1, 3)) == F(1, 3)
        assert rat(-2) == -2

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_lowest_terms_and_structural_equality(self):
        assert rat("6/8") == rat("3/4")
        assert rat("6/8").numerator == 3 and rat("6/8").denominator == 4


class TestBidSpace:
    def test_requires_zero(self):
        with pytest.raises(ValueError):
            BidSpace([F(1, 4), F(1, 2)])

    def test_requires_strictly_increasing(self):
        with pytest.raises(ValueError):
            BidSpace([0, F(1, 2), F(1, 2)])

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError):
            BidSpace([0, F(3, 2)])

    def test_single_bid_space_is_legal(self):
        assert len(BidSpace([0])) == 1


class TestValidation:
    def test_uniform_three_tuples_ok(self, prop34):
        assert validate_instance(prop34).ok

    def test_symmetric_mass_deficit_reported(self):
        prior = DiscretePrior(
            2,
            [(F(1, 2), F(1, 4))] * 2,
            [((F(1, 2), F(1, 4)), F(7, 16))],  # m=2, total 7/8
            [(0, 1)],
        )
        report = validate_instance(prior)
        assert not report.ok
        assert any("7/8" in v for v in report.violations)

    def test_noncanonical_tuple_rejected_not_sorted(self):
        prior = DiscretePrior(
            2, [(F(1, 4), F(1, 2))] * 2, [((F(1, 4), F(1, 2)), F(1, 2))], [(0, 1)]
        )
        report = validate_instance(prior)
        assert not report.ok
        assert any("canonical" in v for v in report.violations)

    @pytest.mark.parametrize("groups, spaces, support, message", [
        pytest.param(None, [(Q, H)] * 2, [((Q,), F(1, 2)), ((H, Q), F(1, 2))],
                     "support[0]: tuple arity 1 != n=2", id="arity"),
        pytest.param(G, [(Q, H)] * 2, [((H,), F(1, 2))],
                     "support[0]: tuple arity 1 != n=2", id="arity-grouped"),
        pytest.param(None, [(Q, H)] * 2, [((Q, H), F(0)), ((H, Q), F(1))],
                     "support[0]: mass 0 not strictly positive", id="mass"),
        pytest.param(G, [(Q, H)] * 2, [((H, Q), F(0)), ((Q, Q), F(1))],
                     "support[0]: mass 0 not strictly positive", id="mass-grouped"),
        pytest.param(None, [(Q, H)] * 2, [((Q, H), F(1, 2))] * 2,
                     f"support[1]: duplicate tuple {(Q, H)}", id="duplicate"),
        pytest.param(G, [(Q, H)] * 2, [((H, Q), F(1, 4))] * 2,
                     f"support[1]: duplicate tuple {(H, Q)}", id="duplicate-grouped"),
        pytest.param(None, [(Q, H)] * 2, [((Q, F(1, 2)), F(1, 2)), ((H, Q), F(1, 2))],
                     "support[0]: component 1 value 1/2 not in V_1", id="value"),
        pytest.param(G, [(Q, H)] * 2, [((H, F(1, 8)), F(1, 2))],
                     "support[0]: component 1 value 1/8 not in V_1", id="value-grouped"),
        pytest.param(None, [(Q, F(5, 4)), (Q, H)], [((Q, H), F(1, 2)), ((F(5, 4), Q), F(1, 2))],
                     "value space 0: values outside [0,1]", id="range"),
        pytest.param(G, [(Q, F(5, 4))] * 2, [((F(5, 4), Q), F(1, 2))],
                     "value space 0: values outside [0,1]", id="range-grouped"),
        pytest.param(None, [(H, Q), (Q, H)], [((Q, H), F(1, 2)), ((H, Q), F(1, 2))],
                     "value space 0: not strictly increasing", id="order"),
        pytest.param(G, [(H, Q)] * 2, [((H, Q), F(1, 2))],
                     "value space 0: not strictly increasing", id="order-grouped"),
        pytest.param(None, [(Q, H)], [((Q, H), F(1))],
                     "expected 2 value spaces, got 1", id="space-count"),
        pytest.param(G, [(Q, H)] * 2, [((Q, H), F(1, 2))],
                     f"support[0]: tuple {(Q, H)} not canonical (non-increasing per group)",
                     id="canonical-grouped"),
        pytest.param([(0,)], [(Q, H)] * 2, [((H, Q), F(1, 2))],
                     "groups ((0,),) do not partition 0..1", id="partition-grouped"),
        pytest.param([(0, 1), ()], [(Q, H)] * 2, [((H, Q), F(1, 2))],
                     "groups ((0, 1), ()) do not partition 0..1", id="empty-group"),
        pytest.param(G, [(Q, H), (Q,)], [((Q, Q), F(1))],
                     "group (0, 1): bidders do not share one value space", id="shared-grouped"),
        pytest.param(None, [(Q, H)] * 2, [((Q, H), F(1, 2)), ((H, Q), F(1, 4))],
                     "total mass 3/4 != 1", id="total"),
        pytest.param(G, [(Q, H)] * 2, [((H, Q), F(1, 4))],
                     "total mass 1/2 != 1", id="total-grouped"),
    ])
    def test_each_discrete_rule(self, groups, spaces, support, message):
        valid = DiscretePrior(2, [(Q, H)] * 2, [((H, Q), F(1, 2))], G)
        assert validate_instance(valid).ok
        report = validate_instance(DiscretePrior(2, spaces, support, groups))
        assert message in report.violations

    def test_lift_style_disjoint_cubes_ok(self, apv_fixture):
        from fpaeq.reduction import lift_dfpa_to_cfpa

        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 8))
        assert validate_instance(lifted.cfpa).ok

    def test_negative_mass_and_bad_component(self):
        prior = DiscretePrior(
            2, [(0, 1), (0, 1)], [((0, 1), F(3, 2)), ((1, F(1, 2)), F(-1, 2))]
        )
        report = validate_instance(prior)
        assert not report.ok
        assert any("not strictly positive" in v for v in report.violations)
        assert any("not in V_1" in v for v in report.violations)

    def test_iid_mass_must_be_one(self):
        bad = IIDMarginal([0, F(1, 2), 1], [1, F(1, 2)])
        assert not validate_instance(bad).ok
        good = IIDMarginal([0, F(1, 2), 1], [F(3, 2), F(1, 2)])
        assert validate_instance(good).ok

    def test_degenerate_value_space_legal(self):
        prior = DiscretePrior(2, [(F(1, 2),), (F(1, 2),)], [((F(1, 2), F(1, 2)), 1)])
        assert validate_instance(prior).ok


class TestMarginalConditional:
    def test_prop34_marginal_is_uniform(self, prop34):
        m = marginal(prop34.prior, 0)
        assert m == {F(0): F(1, 3), F(1, 2): F(1, 3), F(1): F(1, 3)}

    def test_uniform_box_marginal_density_one(self, uniform_box2):
        m = marginal(uniform_box2.prior, 0)
        assert all(p == 1 for p in m.densities)

    def test_iid_mass_at_a_breakpoint_collects_both_sides(self):
        marg = IIDMarginal([0, F(1, 2), 1], [F(1, 2), F(3, 2)])
        assert marginal_mass(marg, 0, F(1, 2)) == 2

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_iid_mass_equals_the_box_expansion(self, rng):
        cuts = sorted(rng.sample([F(j, 12) for j in range(1, 12)], rng.randint(1, 3)))
        bps = [F(0), *cuts, F(1)]
        dens = [F(rng.choice([0, 0, 1, 3])) for _ in cuts] + [F(rng.randint(1, 3))]
        rng.shuffle(dens)
        total = sum((b - a) * d for a, b, d in zip(bps, bps[1:], dens))
        marg = IIDMarginal(bps, [d / total for d in dens])
        n = rng.randint(2, 3)
        boxes = marg.as_box_density(n)
        points = bps + [F(rng.randint(0, 10**6), 10**6) for _ in range(5)]
        for v in points:
            i = rng.randrange(n)
            assert marginal_mass(marg, i, v) == marginal_mass(boxes, i, v)

    def test_marginal_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(25):
            auction = random_discrete_auction(rng)
            prior = auction.prior
            for i in range(prior.n):
                m = marginal(prior, i)
                for v in prior.value_spaces[i]:
                    direct = sum(
                        mass for tup, mass in prior.support if tup[i] == v
                    )
                    assert m.get(v, F(0)) == direct

    def test_bidder_index_out_of_range(self, prop34):
        with pytest.raises(IndexError):
            marginal(prop34.prior, 2)

    def test_prop34_conditional_point_mass(self, prop34):
        cond = conditional(prop34.prior, 0, F(1))
        assert cond == {(F(0),): F(1)}

    def test_product_prior_conditional_is_marginal(self):
        support = []
        for v1, p1 in [(F(1, 4), F(1, 3)), (F(3, 4), F(2, 3))]:
            for v2, p2 in [(F(1, 2), F(1, 2)), (F(1), F(1, 2))]:
                support.append(((v1, v2), p1 * p2))
        prior = DiscretePrior(2, [(F(1, 4), F(3, 4)), (F(1, 2), F(1))], support)
        cond = conditional(prior, 0, F(1, 4))
        assert cond == {(F(1, 2),): F(1, 2), (F(1),): F(1, 2)}

    def test_input_gadget_conditional_masses(self):
        from fpaeq.reduction import isolated_gadget, V_LOW

        auction, names, _ = isolated_gadget("input")
        cond = conditional(auction.prior, names["lits"][0], V_LOW)
        masses = sorted(cond.values())
        total_unnorm = F(33, 128) + 2
        assert masses == sorted(
            [F(33, 128) / total_unnorm, F(2) / total_unnorm]
        )

    def test_conditional_outside_support_fails(self, prop34):
        with pytest.raises(ValueError):
            conditional(prop34.prior, 0, F(1, 4))

    def test_conditional_sums_to_one(self):
        rng = random.Random(11)
        for _ in range(20):
            auction = random_discrete_auction(rng)
            prior = auction.prior
            for i in range(prior.n):
                for v in marginal(prior, i):
                    assert sum(conditional(prior, i, v).values()) == 1


class TestSymmetric:
    def test_two_bidder_expansion(self):
        sym = DiscretePrior(
            2, [(F(1, 4), F(1, 2))] * 2, [((F(1, 2), F(1, 4)), F(1, 2))], [(0, 1)]
        )
        prior = sym.expanded
        assert dict(prior.support) == {
            (F(1, 2), F(1, 4)): F(1, 2),
            (F(1, 4), F(1, 2)): F(1, 2),
        }

    def test_repeated_entry_single_expansion(self):
        sym = DiscretePrior(2, [(F(1, 2),)] * 2, [((F(1, 2), F(1, 2)), F(1))], [(0, 1)])
        prior = sym.expanded
        assert dict(prior.support) == {(F(1, 2), F(1, 2)): F(1)}

    def test_grouped_expansion_mass_one(self):
        rng = random.Random(3)
        for _ in range(30):
            auction = random_symmetric_auction(rng)
            assert validate_instance(auction).ok
            expanded = auction.prior.expanded
            assert validate_instance(expanded).ok

    def test_marginals_commute_with_expansion(self):
        rng = random.Random(5)
        for _ in range(20):
            auction = random_symmetric_auction(rng)
            expanded = auction.prior.expanded
            for i in range(auction.n):
                for v in auction.prior.value_spaces[i]:
                    assert marginal_mass(auction.prior, i, v) == marginal_mass(
                        expanded, i, v
                    )

    def test_multiplicity_multiset(self):
        a, b = F(1, 2), F(1, 4)
        assert multiplicity((a, a, b), [(0, 1, 2)]) == 3
        assert multiplicity((a, a, a), [(0, 1, 2)]) == 1
        assert multiplicity((a, b, a), [(0, 1), (2,)]) == 2

    def test_multiplicity_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            multiplicity((F(1, 4), F(1, 2)), [(0, 1)])


class TestStrategies:
    def test_jump_strategy_bid_assignment(self):
        bids = BidSpace([0, F(1, 4), F(1, 2)])
        s = JumpStrategy(bids, [0, F(1, 3), F(2, 3), 1])
        assert s.bid_at(F(1, 4)) == 0
        assert s.bid_at(F(1, 3)) == 0  # threshold point takes the lower bid
        assert s.bid_at(F(1, 2)) == F(1, 4)
        assert s.bid_at(F(2, 3)) == F(1, 4)
        assert s.bid_at(F(9, 10)) == F(1, 2)
        assert s.bid_at(0) == 0

    def test_jump_strategy_monotone_never_overbids(self):
        rng = random.Random(13)
        bids = BidSpace([0, F(1, 8), F(1, 2), F(3, 4)])
        for _ in range(50):
            cuts = sorted(F(rng.randint(0, 64), 64) for _ in range(3))
            xs = [F(0)] + [max(c, b) for c, b in zip(cuts, list(bids)[1:])] + [F(1)]
            xs = [F(0)] + sorted(xs[1:-1]) + [F(1)]
            if any(x < b for x, b in zip(xs, bids)):
                continue
            s = JumpStrategy(bids, xs)
            probe = [F(k, 97) for k in range(98)]
            prev = F(0)
            for v in probe:
                b = s.bid_at(v)
                assert b <= v or v == 0
                assert b >= prev
                prev = b

    def test_mixed_rows_are_exact(self):
        s = MixedStrategy(0, [(F(1, 2), [(F(0), F(1, 3)), (F(1, 4), F(2, 3))])])
        assert sum(s.row(F(1, 2)).values()) == 1

    def test_validate_strategy_totality(self, prop34):
        missing = PureStrategy(0, {F(0): F(0), F(1): F(1, 10)})
        report = validate_strategy(missing, prop34)
        assert not report.ok

    def test_validate_jump_overbidding(self, uniform_box2):
        bad = JumpStrategy(uniform_box2.bids, [0, F(1, 8), F(1, 2), F(3, 4), 1])
        report = validate_strategy(bad, uniform_box2)
        assert not report.ok
        assert any("overbidding" in v for v in report.violations)

    def test_validate_profile_seats_groups_and_kinds(self, uniform_box2):
        sym = DiscretePrior(
            3, [(F(1, 2),), (F(1, 2),), (0, F(1, 2))], [((F(1, 2),) * 3, 1)], [(0, 1), (2,)]
        )
        auc = Auction(BidSpace([0, F(1, 4)]), sym)
        # per-group strategies are checked against each group's first bidder
        pair = PureStrategy(0, {F(1, 2): F(1, 4)})
        single = PureStrategy(1, {F(0): F(0), F(1, 2): F(1, 4)})
        assert validate_profile(Profile([pair, single], groups=sym.groups), auc).ok
        assert not validate_profile(Profile([single, pair], groups=sym.groups), auc).ok
        assert not validate_profile(Profile([pair, single], groups=[(0, 1), (1, 2)]), auc).ok
        assert not validate_profile(Profile([pair, pair]), auc).ok
        jump = JumpStrategy(uniform_box2.bids, [0, F(1, 4), F(1, 2), F(3, 4), 1])
        other = JumpStrategy([0, F(1, 4)], [0, F(1, 2), 1])
        assert validate_profile(Profile([jump, jump]), uniform_box2).ok
        assert not validate_profile(Profile([jump, other]), uniform_box2).ok
        assert not validate_profile(Profile([jump, pair]), uniform_box2).ok


class TestBoxDensity:
    def test_symmetric_canonical_mass_counts_distinct_images(self):
        # one canonical box with two distinct swaps plus a diagonal one
        prior = BoxDensity(
            2,
            [
                ((F(1, 2), 0), (1, F(1, 2)), 2),  # off-diagonal: 2 images
                ((0, 0), (F(1, 2), F(1, 2)), 2),  # diagonal: 1 image
            ],
            groups=[(0, 1)],
        )
        # off-diagonal: weight 2, volume 1/4, two images; diagonal: one image
        assert prior.total_mass == 2 * 2 * F(1, 4) + 2 * F(1, 4)
        assert validate_instance(prior).ok is False  # mass 3/2, not 1

    def test_density_respects_symmetry(self):
        prior = BoxDensity(
            2, [((F(1, 2), 0), (1, F(1, 2)), 3)], groups=[(0, 1)]
        )
        assert prior.density_at((F(3, 4), F(1, 4))) == 3
        assert prior.density_at((F(1, 4), F(3, 4))) == 3
        assert prior.density_at((F(1, 4), F(1, 4))) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        rng=st.randoms(use_true_random=True),  # draws spread like real ones
        case=st.sampled_from(["symmetric", "image removed", "weights swapped"]),
    )
    def test_transposition_check_matches_all_permutations(self, rng, case):
        # every distinct image of 1-2 random boxes in n <= 4 coordinates; then
        # one image dropped or the weights of two entries exchanged
        n = rng.randint(1, 4)
        halves = [F(0), F(1, 2), F(1)]
        boxes = []
        for w in rng.sample(range(1, 5), rng.randint(1, 2)):
            ivs = [tuple(sorted(rng.sample(halves, 2))) for _ in range(n)]
            images = {tuple(ivs[k] for k in p) for p in itertools.permutations(range(n))}
            boxes += [(tuple(a for a, _ in im), tuple(c for _, c in im), F(w)) for im in sorted(images)]
        if case == "image removed":
            boxes.pop(rng.randrange(len(boxes)))
        elif case == "weights swapped" and len(boxes) > 1:
            j, k = rng.sample(range(len(boxes)), 2)
            boxes[j], boxes[k] = (*boxes[j][:2], boxes[k][2]), (*boxes[k][:2], boxes[j][2])
        prior = BoxDensity(n, boxes)
        assert prior.permutation_symmetric == ref_permutation_symmetric(prior)
        if case == "symmetric":
            assert prior.permutation_symmetric

    def test_closed_under_one_swap_only_is_not_symmetric(self):
        # {A, A with coordinates 0 and 1 swapped}: closed under (0 1), not (1 2)
        a = ((F(0), F(1, 4), F(1, 2)), (F(1, 4), F(1, 2), F(1)), F(1))
        b = ((F(1, 4), F(0), F(1, 2)), (F(1, 2), F(1, 4), F(1)), F(1))
        prior = BoxDensity(3, [a, b])
        assert not prior.permutation_symmetric
        assert not ref_permutation_symmetric(prior)
