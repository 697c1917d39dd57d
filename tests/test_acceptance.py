"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from fractions import Fraction

from fpaeq.densify import (
    DEFAULT_EPS,
    affiliation_L,
    densify_solve,
    eval_beta_iid,
    max_order_cdf,
)
from fpaeq.engine import (
    best_response,
    check_affiliation,
    check_monotone,
    utility,
    verify_mbne,
    verify_pbne,
    win_prob_dfpa,
)
from fpaeq.model import (
    Auction,
    BidSpace,
    IIDMarginal,
    Profile,
    PureStrategy,
    marginal,
)
from fpaeq.reduction import (
    B1,
    B2,
    B3,
    NOT_OF_TRUE,
    S0,
    S1,
    V_LOW,
    _strategy,
    build_auction,
    encode_profile,
    half_bound_chain,
    isolated_gadget,
    lift_dfpa_to_cfpa,
    parse_sat,
    project_strategy,
)
from fpaeq.search import (
    BudgetExceeded,
    SearchConfig,
    enumerate_pure_equilibria,
    jump_grid_search,
    shrink_bidspace,
)
from conftest import (
    nested_cube_sapv,
    random_apv_auction,
    random_discrete_auction,
    random_mixed_profile,
    random_monotone_mixed,
    random_symmetric_auction,
)
from oracles import enum_utility_dfpa, enum_win_prob_dfpa

F = Fraction
ZERO = F(0)
ONE = F(1)


def report(num, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"criterion {num} PASS ({elapsed:.2f}s / budget {budget}s): {name}")
    assert elapsed < budget


# ---------------------------------------------------------------------------
# criterion 1: gadget tables, exactly
# ---------------------------------------------------------------------------

def _rows(auction, bidder, value, profile, scale, cap=None):
    out = []
    for b in (ZERO, B1, B2, B3):
        if cap is not None and b > cap:
            out.append(None)
            continue
        out.append(scale * utility(auction, bidder, value, b, profile, raw=True))
    return out


def test_criterion_1_gadget_tables():
    started = time.monotonic()
    checked = 0

    def expect(actual, wanted):
        nonlocal checked
        assert actual == wanted, (actual, wanted)
        checked += len([w for w in wanted if w is not None])

    # input gadget: literal bidder against the hub, hub against the literals
    auc, names, scale = isolated_gadget("input")
    n = auc.n
    lit_cases = {
        ZERO: (
            [F(6647, 8192 * n), F(28033, 57344), F(9537, 57344), None],
            [F(1, n), F(6, 7), F(5, 7), F(4, 7)],
        ),
        B1: (
            [F(759, 8192 * n), F(2231, 8192), F(9537, 57344), None],
            [ZERO, F(3, 7), F(5, 7), F(4, 7)],
        ),
        B2: (
            [F(759, 8192 * n), F(3201, 57344), F(759, 8192), None],
            [ZERO, ZERO, F(5, 14), F(4, 7)],
        ),
    }
    for hub_bid, (low, one) in lit_cases.items():
        hub_triple = (ZERO, hub_bid, hub_bid)  # only the low-value bid matters
        prof = Profile(
            [_strategy(names["hub"], hub_triple)]
            + [_strategy(l, S0) for l in names["lits"]]
        )
        j = names["lits"][0]
        expect(_rows(auc, j, V_LOW, prof, scale, cap=V_LOW), low)
        expect(_rows(auc, j, ONE, prof, scale), one)
    hub_cases = {
        NOT_OF_TRUE: [ZERO, F(873, 896), F(297, 448), None],
        S0: [ZERO, F(291, 448), F(495, 896), None],
        S1: [ZERO, ZERO, F(99, 448), None],
    }
    for triple, low in hub_cases.items():
        prof = Profile(
            [_strategy(names["hub"], S0)]
            + [_strategy(l, triple) for l in names["lits"]]
        )
        expect(_rows(auc, names["hub"], V_LOW, prof, scale, cap=V_LOW), low)

    # NOT gadget
    auc, names, scale = isolated_gadget("not")
    n = auc.n
    not_cases = {
        S0: (
            [F(759, 16384 * n), F(3201, 114688), F(759, 16384), None],
            [F(1, n), F(6, 7), F(15, 14), F(8, 7)],
        ),
        S1: (
            [F(759, 16384 * n), F(3201, 114688), F(1089, 114688), None],
            [F(1, n), F(6, 7), F(5, 7), F(6, 7)],
        ),
    }
    for triple, (low, one) in not_cases.items():
        prof = Profile(
            [_strategy(names["lit"], triple), _strategy(names["not"], S0)]
        )
        expect(_rows(auc, names["not"], V_LOW, prof, scale, cap=V_LOW), low)
        expect(_rows(auc, names["not"], ONE, prof, scale), one)

    # projection gadget
    auc, names, scale = isolated_gadget("proj")
    n = auc.n
    proj_cases = {
        S0: (
            [F(759, 16384 * n), F(2231, 16384), F(9537, 114688), None],
            [ZERO, F(3, 7), F(5, 7), F(4, 7)],
        ),
        S1: (
            [F(759, 16384 * n), F(3201, 114688), F(759, 16384), None],
            [ZERO, ZERO, F(5, 14), F(4, 7)],
        ),
    }
    for triple, (low, one) in proj_cases.items():
        prof = Profile(
            [_strategy(names["not"], triple), _strategy(names["proj"], S0)]
        )
        expect(_rows(auc, names["proj"], V_LOW, prof, scale, cap=V_LOW), low)
        expect(_rows(auc, names["proj"], ONE, prof, scale), one)

    # the two OR layers share their table
    for family in ("or1", "or2"):
        auc, names, scale = isolated_gadget(family)
        n = auc.n
        or_cases = [
            (S0, S0,
             [F(23, 8192 * n), F(12513, 57344), F(8481, 57344), None],
             [ZERO, F(6, 7), F(10, 7), F(8, 7)]),
            (S0, S1,
             [F(23, 8192 * n), F(6305, 57344), F(6369, 57344), None],
             [ZERO, F(3, 7), F(15, 14), F(8, 7)]),
            (S1, S1,
             [F(23, 8192 * n), F(97, 57344), F(4257, 57344), None],
             [ZERO, ZERO, F(5, 7), F(8, 7)]),
        ]
        for a_t, b_t, low, one in or_cases:
            prof = Profile(
                [
                    _strategy(names["a"], a_t),
                    _strategy(names["b"], b_t),
                    _strategy(names["or"], S0),
                ]
            )
            expect(_rows(auc, names["or"], V_LOW, prof, scale, cap=V_LOW), low)
            expect(_rows(auc, names["or"], ONE, prof, scale), one)

    # output gadget
    auc, names, scale = isolated_gadget("out")
    n = auc.n
    out_cases = {
        ZERO: [F(1, n), F(33, 28), F(5, 4), ONE],
        B1: [F(1, n), F(15, 14), F(5, 4), ONE],
        B2: [F(1, n), F(6, 7), F(55, 56), ONE],
        B3: [F(1, n), F(6, 7), F(5, 7), F(11, 14)],
    }
    for l_bid, one in out_cases.items():
        prof = Profile(
            [
                _strategy(names["or2"], S0),
                _strategy(names["k"], (ZERO, ZERO, ZERO)),
                _strategy(names["l"], (ZERO, ZERO, l_bid)),
            ]
        )
        expect(_rows(auc, names["k"], ONE, prof, scale), one)
    # spot values named in the criterion
    prof = Profile(
        [
            _strategy(names["or2"], S0),
            _strategy(names["k"], (ZERO, ZERO, ZERO)),
            _strategy(names["l"], (ZERO, ZERO, ZERO)),
        ]
    )
    assert scale * utility(auc, names["k"], ONE, B1, prof, raw=True) == F(33, 28)

    report(1, f"all five gadget families, {checked} table entries exact", started, 5)


# ---------------------------------------------------------------------------
# criterion 2: output-gadget cycle
# ---------------------------------------------------------------------------

def test_criterion_2_output_cycle():
    started = time.monotonic()
    auc, names, scale = isolated_gadget("out")
    chain = half_bound_chain()
    total = scale * chain.d_out
    eps = chain.d_out / (56 * total)

    def out_profile(or2_triple, k_bid, l_bid):
        return Profile(
            [
                _strategy(names["or2"], or2_triple),
                _strategy(names["k"], (ZERO, ZERO, k_bid)),
                _strategy(names["l"], (ZERO, ZERO, l_bid)),
            ]
        )

    cycle = {ZERO: B2, B1: B2, B2: B3, B3: B1}
    for l_bid, want in cycle.items():
        rep = best_response(auc, names["k"], ONE, out_profile(S0, ZERO, l_bid))
        assert rep.argmax == (want,)

    for k_bid, l_bid in itertools.product((ZERO, B1, B2, B3), repeat=2):
        prof = out_profile(S0, k_bid, l_bid)
        gains = []
        for bidder, played in ((names["k"], k_bid), (names["l"], l_bid)):
            rep = best_response(auc, bidder, ONE, prof)
            gains.append(rep.best_utility - utility(auc, bidder, ONE, played, prof))
        assert max(gains) > eps

    prof = out_profile(S1, B1, B3)
    for bidder, played in ((names["k"], B1), (names["l"], B3)):
        rep = best_response(auc, bidder, ONE, prof)
        assert rep.best_utility == utility(auc, bidder, ONE, played, prof)

    report(2, "cycle {0,b1->b2, b2->b3, b3->b1}; no mutual eps-BR under s0; "
              "(b1,b3) exact under s1", started, 1)


# ---------------------------------------------------------------------------
# criterion 3: reduction round-trip
# ---------------------------------------------------------------------------

def test_criterion_3_reduction_round_trip():
    started = time.monotonic()
    formula = parse_sat("1 2 0\n-1 3 0\n-2 -3 1 0\n")
    auction, rmap = build_auction(formula)
    assignment = {1: 1, 2: 0, 3: 1}
    assert formula.satisfies(assignment)
    profile = encode_profile(assignment, rmap)
    eps = rmap.chain.eps_threshold
    base = verify_pbne(auction, profile, eps / 2)
    assert base.ok

    flips = 0
    for outk, outl in rmap.clause_out:
        for out_bidder in (outk, outl):
            current = profile.strategies[out_bidder].bid_at(ONE)
            for new_bid in (ZERO, B1, B2, B3):
                if new_bid == current:
                    continue
                strategies = list(profile.strategies)
                strategies[out_bidder] = _strategy(out_bidder, (ZERO, ZERO, new_bid))
                flipped = Profile(strategies)
                rep = best_response(auction, out_bidder, ONE, flipped)
                gain = rep.best_utility - utility(
                    auction, out_bidder, ONE, new_bid, flipped
                )
                assert gain > eps
                flips += 1

    report(3, f"{rmap.n}-bidder instance: encoded profile exact at eps/2; "
              f"{flips} output flips all violate", started, 30)


# ---------------------------------------------------------------------------
# criterion 4: the monotone/non-monotone dichotomy
# ---------------------------------------------------------------------------

def test_criterion_4_dichotomy(prop34):
    started = time.monotonic()
    monotone = enumerate_pure_equilibria(
        prop34, SearchConfig(eps=F(1, 100), monotone_only=True)
    )
    assert monotone.status == "none"
    unrestricted = enumerate_pure_equilibria(prop34, SearchConfig(eps=ZERO))
    assert unrestricted.found
    assert verify_pbne(prop34, unrestricted.profile, ZERO).ok
    assert any(not check_monotone(s) for s in unrestricted.profile.strategies)
    report(4, f"monotone: none in {monotone.checked} profiles; unrestricted: "
              "exact PBNE found, non-monotone", started, 10)


# ---------------------------------------------------------------------------
# criterion 5: densification bound
# ---------------------------------------------------------------------------

def test_criterion_5_densification():
    started = time.monotonic()
    bids = BidSpace([F(k, 100) for k in range(101)])
    uniform = IIDMarginal([0, 1], [1])
    for n in (2, 3):
        auction = Auction(bids, uniform, n=n)
        cert = densify_solve(auction, DEFAULT_EPS)
        assert cert.bounds.gamma == n
        assert cert.claimed == 2 * n * (F(1, 100) + 2 * DEFAULT_EPS)
        assert cert.measured <= cert.claimed
        for k in range(1, 51):
            v = F(k, 50)
            closed_form = F(n - 1, n) * v
            assert eval_beta_iid(uniform, n, v) == closed_form
            bt = cert.strategy.bid_at(v)
            assert closed_form - (cert.bounds.delta + 2 * DEFAULT_EPS) <= bt <= closed_form
    report(5, "uniform iid n in {2,3}: claimed 2n(1/100 + 2^-39) covers the "
              "measured gain; 50-point underapproximation", started, 60)


# ---------------------------------------------------------------------------
# criterion 6: lift contract
# ---------------------------------------------------------------------------

def test_criterion_6_lift_contract(apv_fixture):
    started = time.monotonic()
    assert check_affiliation(apv_fixture.prior)[0]
    lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 2))  # auto-shrinks
    assert check_affiliation(lifted.cfpa.prior)[0]
    result = jump_grid_search(lifted.cfpa, SearchConfig(eps=ZERO))
    assert result.found
    mixed = project_strategy(result.profile, lifted.dfpa, lifted.delta)
    rep = verify_mbne(lifted.dfpa, mixed, lifted.delta)  # eps + delta, eps = 0
    assert rep.ok
    report(6, f"auto delta = {lifted.delta}; lift affiliated; grid search found "
              "an exact PBNE; projection verifies", started, 120)


# ---------------------------------------------------------------------------
# criterion 7: DP vs enumeration
# ---------------------------------------------------------------------------

def test_criterion_7_dp_vs_enumeration():
    started = time.monotonic()
    rng = random.Random(2024)
    checks = 0
    for _ in range(120):
        auc = random_discrete_auction(rng)
        profile = random_mixed_profile(rng, auc)
        i = rng.randrange(auc.n)
        values = [v for v, m in marginal(auc.prior, i).items() if m > 0]
        v = rng.choice(values)
        for b in auc.bids:
            assert win_prob_dfpa(auc, i, v, b, profile) == enum_win_prob_dfpa(
                auc, i, v, b, profile
            )
            assert utility(auc, i, v, b, profile) == enum_utility_dfpa(
                auc, i, v, b, profile
            )
            checks += 2
    for _ in range(80):
        auc = random_symmetric_auction(rng)
        groups = auc.prior.groups
        strategies = []
        for g in range(len(groups)):
            values = auc.prior.value_spaces[groups[g][0]]
            strategies.append(
                PureStrategy(g, {v: rng.choice(list(auc.bids)) for v in values})
            )
        prof = Profile(strategies, groups=groups)
        expanded_auc = Auction(auc.bids, auc.prior.expanded)
        expanded_prof = prof.expand(auc.n)
        i = groups[rng.randrange(len(groups))][0]
        values = [v for v, m in marginal(auc.prior, i).items() if m > 0]
        v = rng.choice(values)
        for b in auc.bids:
            succinct = utility(auc, i, v, b, prof)
            assert succinct == utility(expanded_auc, i, v, b, expanded_prof)
            assert succinct == enum_utility_dfpa(expanded_auc, i, v, b, expanded_prof)
            checks += 2
    report(7, f"200 random instances, {checks} exact agreements", started, 60)


# ---------------------------------------------------------------------------
# criterion 8: order-theoretic property suites
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites():
    started = time.monotonic()
    rng = random.Random(4099)
    quads = 0
    for _ in range(100):
        auc = random_apv_auction(rng)
        prof = Profile(
            [random_monotone_mixed(rng, auc, i) for i in range(auc.n)]
        )
        i = rng.randrange(auc.n)
        values = sorted(marginal(auc.prior, i))
        bids = list(auc.bids)
        H = {
            (b, v): win_prob_dfpa(auc, i, v, b, prof)
            for b in bids
            for v in values
        }
        u = {(b, v): (v - b) * H[(b, v)] for b in bids for v in values}
        for b1, b2 in itertools.combinations(bids, 2):
            for v1, v2 in itertools.combinations(values, 2):
                assert H[(b2, v2)] * H[(b1, v1)] >= H[(b1, v2)] * H[(b2, v1)]
                quads += 1
                if b2 <= v1 and u[(b2, v1)] >= u[(b1, v1)]:
                    assert u[(b2, v2)] >= u[(b1, v2)]

    l_checks = 0
    for k in range(20):
        frng = random.Random(500 + k)
        prior = nested_cube_sapv(frng, n=2 if k % 3 else 3).prior
        probes = [F(j, 6) for j in range(7)]
        for v in (F(1, 3), F(5, 6)):
            assert affiliation_L(prior, v, ZERO) == ZERO
            assert affiliation_L(prior, v, v) == ONE
            ys = [y for y in probes if y <= v]
            vals = [affiliation_L(prior, v, y) for y in ys]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            g = max_order_cdf(prior, v)
            for y in ys:
                assert affiliation_L(prior, v, y) >= g(y) / g(v)
                l_checks += 1
        for y in (F(1, 6), F(1, 2)):
            col = [affiliation_L(prior, v, y) for v in probes if v >= y and v > 0]
            assert all(b <= a for a, b in zip(col, col[1:]))
    report(8, f"forward-SCC + log-supermodularity on 100 instances "
              f"({quads} quadruples); L properties on 20 fixtures "
              f"({l_checks} ratio bounds)", started, 120)


# ---------------------------------------------------------------------------
# criterion 9: shrinkage soundness
# ---------------------------------------------------------------------------

def test_criterion_9_shrinkage_soundness():
    started = time.monotonic()
    rng = random.Random(77)
    attempted = passed = 0
    while attempted < 50:
        auc = random_discrete_auction(rng)
        M = rng.randint(2, 4)
        shrunk = shrink_bidspace(auc.bids, M)
        small = Auction(shrunk.bids, auc.prior)
        eps = F(1, 20)
        try:
            result = enumerate_pure_equilibria(
                small, SearchConfig(eps=eps, budget=400000)
            )
        except BudgetExceeded:
            continue
        attempted += 1
        if not result.found:
            continue
        rep = verify_pbne(auc, result.profile, eps + shrunk.guarantee)
        assert rep.ok
        passed += 1
    assert passed >= 15
    report(9, f"{passed} equilibria on shrunk spaces re-verified on the "
              f"original bids at eps + 1/(M-1)", started, 60)
