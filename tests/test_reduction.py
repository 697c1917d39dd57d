import itertools
import random
from fractions import Fraction

import pytest

from fpaeq.engine import (
    best_response,
    check_affiliation,
    utility,
    verify_mbne,
    verify_pbne,
    win_prob_dfpa,
)
from fpaeq.model import (
    Auction,
    BidSpace,
    DiscretePrior,
    JumpStrategy,
    Profile,
    validate_instance,
)
from fpaeq.reduction import (
    B1,
    B2,
    B3,
    NOT_OF_TRUE,
    S0,
    S1,
    V_LOW,
    SatFormula,
    build_auction,
    chain_from_doc,
    chain_to_doc,
    encode_profile,
    extract_assignment,
    half_bound_chain,
    isolated_gadget,
    lift_dfpa_to_cfpa,
    map_from_doc,
    map_to_doc,
    parse_sat,
    project_strategy,
    _strategy,
)
from fpaeq.search import SearchConfig, jump_grid_search
from conftest import random_symmetric_auction

F = Fraction
ZERO = F(0)
ONE = F(1)


class TestParseSat:
    def test_small_formula(self):
        f = parse_sat("c comment\np cnf 2 1\n1 2 0\n")
        assert f.num_vars == 2 and f.clauses == ((1, 2),)

    def test_occurrence_limit(self):
        with pytest.raises(ValueError, match="occurs 4 times"):
            parse_sat("1 2 0\n1 3 0\n-1 2 0\n1 3 0\n")

    def test_clause_width(self):
        with pytest.raises(ValueError, match="width"):
            parse_sat("1 0\n")
        with pytest.raises(ValueError, match="width"):
            parse_sat("1 2 3 4 0\n")

    def test_signs_preserved(self):
        f = parse_sat("-1 2 -3 0\n1 -2 0\n")
        assert f.clauses == ((-1, 2, -3), (1, -2))

    def test_satisfies(self):
        f = parse_sat("1 -2 0\n-1 2 0\n")
        assert f.satisfies({1: 1, 2: 1})
        assert not f.satisfies({1: 1, 2: 0})


def row(auction, bidder, value, profile, scale, no_overbid_value=None):
    """Scaled raw utilities for bids 0, b1, b2, b3 (None above own value)."""
    out = []
    for b in (ZERO, B1, B2, B3):
        if no_overbid_value is not None and b > no_overbid_value:
            out.append(None)
            continue
        out.append(scale * utility(auction, bidder, value, b, profile, raw=True))
    return out


class TestInputGadgetTable:
    def setup_method(self):
        self.auc, self.names, self.scale = isolated_gadget("input")
        self.n = self.auc.n
        assert self.n == 4

    def lit_rows(self, hub_bid_at_low):
        hub_triple = {
            ZERO: (ZERO, ZERO, ZERO),
            B1: S0,
            B2: S1,
        }[hub_bid_at_low]
        prof = Profile(
            [_strategy(self.names["hub"], hub_triple)]
            + [_strategy(l, S0) for l in self.names["lits"]]
        )
        j = self.names["lits"][0]
        return (
            row(self.auc, j, V_LOW, prof, self.scale, no_overbid_value=V_LOW),
            row(self.auc, j, ONE, prof, self.scale),
        )

    def test_hub_bids_zero(self):
        low, one = self.lit_rows(ZERO)
        n = self.n
        assert low == [F(6647, 8192 * n), F(28033, 57344), F(9537, 57344), None]
        assert one == [F(1, n), F(6, 7), F(5, 7), F(4, 7)]

    def test_hub_bids_b1(self):
        low, one = self.lit_rows(B1)
        n = self.n
        assert low == [F(759, 8192 * n), F(2231, 8192), F(9537, 57344), None]
        assert one == [ZERO, F(3, 7), F(5, 7), F(4, 7)]

    def test_hub_bids_b2(self):
        low, one = self.lit_rows(B2)
        n = self.n
        assert low == [F(759, 8192 * n), F(3201, 57344), F(759, 8192), None]
        assert one == [ZERO, ZERO, F(5, 14), F(4, 7)]

    def test_hub_against_literal_blocks(self):
        cases = {
            NOT_OF_TRUE: [ZERO, F(873, 896), F(297, 448), None],
            S0: [ZERO, F(291, 448), F(495, 896), None],
            S1: [ZERO, ZERO, F(99, 448), None],
        }
        for lit_triple, expected in cases.items():
            prof = Profile(
                [_strategy(self.names["hub"], S0)]
                + [_strategy(l, lit_triple) for l in self.names["lits"]]
            )
            got = row(
                self.auc,
                self.names["hub"],
                V_LOW,
                prof,
                self.scale,
                no_overbid_value=V_LOW,
            )
            assert got == expected


class TestNotGadgetTable:
    def test_both_cases(self):
        auc, names, scale = isolated_gadget("not")
        n = auc.n
        assert n == 2
        cases = {
            S0: (
                [F(759, 16384 * n), F(3201, 114688), F(759, 16384), None],
                [F(1, n), F(6, 7), F(15, 14), F(8, 7)],
            ),
            S1: (
                [F(759, 16384 * n), F(3201, 114688), F(1089, 114688), None],
                [F(1, n), F(6, 7), F(5, 7), F(6, 7)],
            ),
        }
        for lit_triple, (low_exp, one_exp) in cases.items():
            prof = Profile(
                [_strategy(names["lit"], lit_triple), _strategy(names["not"], S0)]
            )
            j = names["not"]
            assert row(auc, j, V_LOW, prof, scale, no_overbid_value=V_LOW) == low_exp
            assert row(auc, j, ONE, prof, scale) == one_exp


class TestProjGadgetTable:
    def test_both_cases(self):
        auc, names, scale = isolated_gadget("proj")
        n = auc.n
        assert n == 2
        cases = {
            # the upstream bidder is a NOT bidder; only its low-value bid matters
            S0: (
                [F(759, 16384 * n), F(2231, 16384), F(9537, 114688), None],
                [ZERO, F(3, 7), F(5, 7), F(4, 7)],
            ),
            S1: (
                [F(759, 16384 * n), F(3201, 114688), F(759, 16384), None],
                [ZERO, ZERO, F(5, 14), F(4, 7)],
            ),
        }
        for not_triple, (low_exp, one_exp) in cases.items():
            prof = Profile(
                [_strategy(names["not"], not_triple), _strategy(names["proj"], S0)]
            )
            j = names["proj"]
            assert row(auc, j, V_LOW, prof, scale, no_overbid_value=V_LOW) == low_exp
            assert row(auc, j, ONE, prof, scale) == one_exp


class TestOrGadgetTables:
    @pytest.mark.parametrize("family", ["or1", "or2"])
    def test_all_cases(self, family):
        auc, names, scale = isolated_gadget(family)
        n = auc.n
        assert n == 3
        # rows at value 1 follow from the construction: only the two paired
        # points carry mass there, so the bid-0 entry is zero in every case
        cases = [
            (
                S0,
                S0,
                [F(23, 8192 * n), F(12513, 57344), F(8481, 57344), None],
                [ZERO, F(6, 7), F(10, 7), F(8, 7)],
            ),
            (
                S0,
                S1,
                [F(23, 8192 * n), F(6305, 57344), F(6369, 57344), None],
                [ZERO, F(3, 7), F(15, 14), F(8, 7)],
            ),
            (
                S1,
                S0,  # symmetric to the previous case
                [F(23, 8192 * n), F(6305, 57344), F(6369, 57344), None],
                [ZERO, F(3, 7), F(15, 14), F(8, 7)],
            ),
            (
                S1,
                S1,
                [F(23, 8192 * n), F(97, 57344), F(4257, 57344), None],
                [ZERO, ZERO, F(5, 7), F(8, 7)],
            ),
        ]
        for a_triple, b_triple, low_exp, one_exp in cases:
            prof = Profile(
                [
                    _strategy(names["a"], a_triple),
                    _strategy(names["b"], b_triple),
                    _strategy(names["or"], S0),
                ]
            )
            j = names["or"]
            assert row(auc, j, V_LOW, prof, scale, no_overbid_value=V_LOW) == low_exp
            assert row(auc, j, ONE, prof, scale) == one_exp

    def test_or_semantics_from_best_responses(self):
        auc, names, _ = isolated_gadget("or2")
        for a_bit, b_bit in itertools.product((0, 1), repeat=2):
            prof = Profile(
                [
                    _strategy(names["a"], S1 if a_bit else S0),
                    _strategy(names["b"], S1 if b_bit else S0),
                    _strategy(names["or"], S0),
                ]
            )
            want = S1 if (a_bit | b_bit) else S0
            low = best_response(auc, names["or"], V_LOW, prof)
            one = best_response(auc, names["or"], ONE, prof)
            assert low.argmax == (want[1],)
            assert one.argmax == (want[2],)


class TestOutputGadget:
    def out_profile(self, or2_triple, k_bid, l_bid):
        auc, names, scale = isolated_gadget("out")
        prof = Profile(
            [
                _strategy(names["or2"], or2_triple),
                _strategy(names["k"], (ZERO, ZERO, k_bid)),
                _strategy(names["l"], (ZERO, ZERO, l_bid)),
            ]
        )
        return auc, names, scale, prof

    def test_tables_against_s0(self):
        expected = {
            ZERO: [None, F(33, 28), F(5, 4), F(1)],
            B1: [None, F(15, 14), F(5, 4), F(1)],
            B2: [None, F(6, 7), F(55, 56), F(1)],
            B3: [None, F(6, 7), F(5, 7), F(11, 14)],
        }
        for l_bid, exp in expected.items():
            auc, names, scale, prof = self.out_profile(S0, ZERO, l_bid)
            got = row(auc, names["k"], ONE, prof, scale)
            assert got[1:] == exp[1:]
            assert got[0] == F(1, auc.n)

    def test_best_response_cycle(self):
        cycle = {ZERO: B2, B1: B2, B2: B3, B3: B1}
        for l_bid, k_best in cycle.items():
            auc, names, scale, prof = self.out_profile(S0, ZERO, l_bid)
            rep = best_response(auc, names["k"], ONE, prof)
            assert rep.argmax == (k_best,)

    def test_no_mutual_eps_best_response_under_s0(self):
        auc, names, scale, _ = self.out_profile(S0, ZERO, ZERO)
        chain = half_bound_chain()
        total = scale * chain.d_out  # the isolated instance's Delta
        eps = chain.d_out / (56 * total)
        bids = [ZERO, B1, B2, B3]
        for k_bid, l_bid in itertools.product(bids, repeat=2):
            auc, names, scale, prof = self.out_profile(S0, k_bid, l_bid)
            gain_k = (
                best_response(auc, names["k"], ONE, prof).best_utility
                - utility(auc, names["k"], ONE, k_bid, prof)
            )
            gain_l = (
                best_response(auc, names["l"], ONE, prof).best_utility
                - utility(auc, names["l"], ONE, l_bid, prof)
            )
            assert max(gain_k, gain_l) > eps

    def test_b1_b3_split_is_exact_mutual_br_under_s1(self):
        auc, names, scale, prof = self.out_profile(S1, B1, B3)
        for bidder, played in ((names["k"], B1), (names["l"], B3)):
            rep = best_response(auc, bidder, ONE, prof)
            assert played in rep.argmax
            assert rep.best_utility == utility(auc, bidder, ONE, played, prof)

    def test_tables_against_s1(self):
        auc, names, scale, prof = self.out_profile(S1, B3, B1)
        got = row(auc, names["k"], ONE, prof, scale)
        assert got == [F(1, auc.n), F(6, 7), F(55, 56), F(1)]
        auc, names, scale, prof = self.out_profile(S1, B1, B3)
        got = row(auc, names["k"], ONE, prof, scale)
        assert got == [F(1, auc.n), F(6, 7), F(5, 7), F(11, 14)]


class TestDeltaChain:
    def test_half_bound_values(self):
        c = half_bound_chain()
        assert c.d_not == F(33, 3584)
        assert c.d_proj == F(33, 7168) * c.d_not == F(33 * 33, 2 * 3584 * 3584)
        assert not c.ladder_violations()

    def test_ladder_rejects_violations(self):
        c = half_bound_chain()
        from dataclasses import replace

        bad = replace(c, d_proj=c.d_not)
        assert bad.ladder_violations()
        with pytest.raises(ValueError):
            build_auction(SatFormula(1, []), bad)

    def test_default_deltas_positive_threshold(self):
        f = parse_sat("1 2 0\n-1 2 -3 0\n")
        chain = build_auction(f)[1].chain
        assert chain.eps_threshold > 0
        assert all(e >= chain.eps_threshold for e in chain.lemma_epsilons(chain.total))

    def test_chain_doc_round_trip(self):
        f = parse_sat("1 2 0\n")
        chain = build_auction(f)[1].chain
        assert chain_from_doc(chain_to_doc(chain)) == chain


class TestBuildAuction:
    def test_single_variable_no_clauses(self):
        auction, rmap = build_auction(SatFormula(1, []))
        assert rmap.n == 4
        assert len(auction.prior.support) == 9
        assert rmap.chain.total == F(1251, 128)
        assert validate_instance(auction).ok

    def test_two_literal_clause_structure(self):
        auction, rmap = build_auction(parse_sat("1 2 0\n"))
        kinds = [r.kind for r in rmap.roles]
        assert kinds.count("input-hub") == 2
        assert kinds.count("input-lit") == 6
        assert kinds.count("or2") == 1
        assert kinds.count("out") == 2
        assert kinds.count("or1") == kinds.count("not") == 0
        assert validate_instance(auction).ok

    def test_negated_three_clause_structure(self):
        auction, rmap = build_auction(parse_sat("-1 2 3 0\n"))
        kinds = [r.kind for r in rmap.roles]
        assert kinds.count("not") == 1
        assert kinds.count("proj") == 1
        assert kinds.count("or1") == 1
        assert kinds.count("or2") == 1
        assert kinds.count("out") == 2
        assert validate_instance(auction).ok

    def test_map_doc_round_trip(self):
        _, rmap = build_auction(parse_sat("-1 2 0\n1 3 2 0\n"))
        assert map_from_doc(map_to_doc(rmap)) == rmap


class TestEncodeExtract:
    def test_satisfying_assignment_is_exact_pbne(self):
        formula = parse_sat("1 2 0\n-1 3 0\n-2 -3 1 0\n")
        auction, rmap = build_auction(formula)
        assignment = {1: 1, 2: 0, 3: 1}
        assert formula.satisfies(assignment)
        profile = encode_profile(assignment, rmap)
        report = verify_pbne(auction, profile, rmap.chain.eps_threshold / 2)
        assert report.ok
        assert report.max_gain == 0

    def test_true_inputs_play_s1(self):
        formula = parse_sat("1 2 0\n")
        _, rmap = build_auction(formula)
        profile = encode_profile({1: 1, 2: 0}, rmap)
        for lit in rmap.var_literals[0]:
            s = profile.strategies[lit]
            assert (s.bid_at(ZERO), s.bid_at(V_LOW), s.bid_at(ONE)) == S1

    def test_or2_of_mixed_inputs_plays_s1(self):
        formula = parse_sat("1 2 0\n")
        _, rmap = build_auction(formula)
        profile = encode_profile({1: 0, 2: 1}, rmap)
        s = profile.strategies[rmap.clause_or2[0]]
        assert (s.bid_at(ZERO), s.bid_at(V_LOW), s.bid_at(ONE)) == S1

    def test_extract_round_trip(self):
        formula = parse_sat("-1 2 0\n2 3 1 0\n")
        _, rmap = build_auction(formula)
        for bits in itertools.product((0, 1), repeat=3):
            assignment = {x + 1: bits[x] for x in range(3)}
            profile = encode_profile(assignment, rmap)
            assert extract_assignment(profile, rmap) == assignment

    def test_non_encoding_detected(self):
        formula = parse_sat("1 2 0\n")
        _, rmap = build_auction(formula)
        profile = encode_profile({1: 0, 2: 0}, rmap)
        strategies = list(profile.strategies)
        lit = rmap.var_literals[0][0]
        strategies[lit] = _strategy(lit, NOT_OF_TRUE)
        assert extract_assignment(Profile(strategies), rmap) is None

    def test_flipping_an_out_bidder_creates_violation(self):
        formula = parse_sat("1 -2 0\n")
        auction, rmap = build_auction(formula)
        assignment = {1: 1, 2: 1}
        assert formula.satisfies(assignment)
        profile = encode_profile(assignment, rmap)
        eps = rmap.chain.eps_threshold
        for out_bidder in rmap.clause_out[0]:
            for new_bid in (ZERO, B1, B2, B3):
                old = profile.strategies[out_bidder]
                if new_bid == old.bid_at(ONE):
                    continue
                strategies = list(profile.strategies)
                strategies[out_bidder] = _strategy(
                    out_bidder, (ZERO, ZERO, new_bid)
                )
                report = verify_pbne(auction, Profile(strategies), eps)
                assert not report.ok
                assert any(v.gain > eps for v in report.violations)


class TestLift:
    def test_affiliation_preserved(self, apv_fixture):
        assert check_affiliation(apv_fixture.prior)[0]
        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 10))
        assert check_affiliation(lifted.cfpa.prior)[0]
        assert validate_instance(lifted.cfpa).ok

    def test_total_mass_one(self, apv_fixture):
        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 10))
        assert lifted.cfpa.prior.total_mass == 1

    def test_auto_shrink(self, apv_fixture):
        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 2))
        assert lifted.delta == F(1, 8)  # half the least gap
        assert lifted.rescale_loss == 0

    def test_rescale_when_one_is_a_value(self, prop34):
        lifted = lift_dfpa_to_cfpa(prop34, F(1, 100))
        assert lifted.rescale_loss > 0
        values = {v for vs in lifted.dfpa.prior.value_spaces for v in vs}
        assert max(values) < 1
        assert lifted.cfpa.prior.total_mass == 1
        assert validate_instance(lifted.cfpa).ok

    def test_symmetric_lift_keeps_canonical_cubes(self):
        rng = random.Random(3)
        auction = random_symmetric_auction(rng)
        lifted = lift_dfpa_to_cfpa(auction, F(1, 64))
        box = lifted.cfpa.prior
        assert box.groups == auction.prior.groups
        assert len(box.boxes) == len(auction.prior.support)
        assert box.total_mass == 1

    def test_win_prob_contract(self, apv_fixture):
        # H under the projected mixed profile equals H in the lift, for every
        # point of the value cube
        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 10))
        delta = lifted.delta
        bids = apv_fixture.bids
        jump = JumpStrategy(bids, [ZERO, F(3, 8), ONE])
        cfpa_prof = Profile([jump, jump])
        mixed = project_strategy(cfpa_prof, lifted.dfpa, delta)
        for v in (F(1, 4), F(3, 4)):
            for b in bids:
                hd = win_prob_dfpa(lifted.dfpa, 0, v, b, mixed)
                for x in (v, v + delta / 3, v + delta):
                    hc = utility(
                        lifted.cfpa, 0, x, b, cfpa_prof, raw=True
                    )
                    from fpaeq.model import marginal_mass

                    fi = marginal_mass(lifted.cfpa.prior, 0, x)
                    if x == b:
                        continue
                    assert hd == hc / ((x - b) * fi)


class TestProject:
    def test_constant_segment_projects_to_point_mass(self, apv_fixture):
        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 10))
        jump = JumpStrategy(apv_fixture.bids, [ZERO, F(1, 2), ONE])
        mixed = project_strategy(Profile([jump, jump]), lifted.dfpa, lifted.delta)
        assert mixed.strategies[0].row(F(1, 4)) == {ZERO: ONE}
        assert mixed.strategies[0].row(F(3, 4)) == {F(1, 4): ONE}

    def test_midpoint_jump_projects_to_even_mix(self, apv_fixture):
        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 10))
        delta = lifted.delta
        jump = JumpStrategy(
            apv_fixture.bids, [ZERO, F(1, 4) + delta / 2, ONE]
        )
        mixed = project_strategy(Profile([jump, jump]), lifted.dfpa, delta)
        assert mixed.strategies[0].row(F(1, 4)) == {ZERO: F(1, 2), F(1, 4): F(1, 2)}

    def test_lift_solve_project_pipeline(self, apv_fixture):
        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 2))
        assert check_affiliation(lifted.cfpa.prior)[0]
        result = jump_grid_search(lifted.cfpa, SearchConfig(eps=ZERO))
        assert result.found
        mixed = project_strategy(result.profile, lifted.dfpa, lifted.delta)
        report = verify_mbne(lifted.dfpa, mixed, lifted.delta)  # eps + delta
        assert report.ok
        for s in mixed.strategies:
            from fpaeq.engine import check_monotone

            assert check_monotone(s)

    def test_lift_solve_project_one_group(self):
        # the correlated two-point prior of apv_fixture as one group: the lift
        # keeps the group, the search runs per group, and the projection takes
        # the group branch
        lo, hi = F(1, 4), F(3, 4)
        support = [((hi, hi), F(3, 8)), ((hi, lo), F(1, 8)), ((lo, lo), F(3, 8))]
        dfpa = Auction(BidSpace([0, lo]), DiscretePrior(2, [(lo, hi)] * 2, support, [(0, 1)]))
        assert dfpa.kind == "dfpa-sym" and validate_instance(dfpa).ok
        lifted = lift_dfpa_to_cfpa(dfpa, F(1, 2))
        result = jump_grid_search(lifted.cfpa, SearchConfig(eps=ZERO, symmetric=True))
        assert result.found and result.profile.groups == ((0, 1),)
        mixed = project_strategy(result.profile, lifted.dfpa, lifted.delta)
        assert mixed.groups == ((0, 1),) and len(mixed.strategies) == 1
        assert verify_mbne(lifted.dfpa, mixed, lifted.delta).ok  # eps + delta
        per_seat = project_strategy(result.profile.expand(2), lifted.dfpa, lifted.delta)
        assert per_seat.strategies[0].table == mixed.strategies[0].table
