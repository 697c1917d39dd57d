import io
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpaeq import engine
from fpaeq.engine import check_monotone, verify_pbne
from fpaeq.model import (
    Auction,
    BidSpace,
    BoxDensity,
    DiscretePrior,
    IIDMarginal,
    Profile,
    PureStrategy,
)
from fpaeq.search import (
    BudgetExceeded,
    SearchConfig,
    count_jump_vectors,
    default_jump_grid,
    enumerate_pure_equilibria,
    enumerate_symmetric_pure,
    jump_grid_search,
    shrink_bidspace,
)
from conftest import (
    nested_cube_sapv,
    random_discrete_auction,
    random_symmetric_auction,
)
from oracles import all_pure_profiles, ref_search

F = Fraction
ZERO = F(0)


class TestEnumeratePure:
    def test_prop34_monotone_none(self, prop34):
        cfg = SearchConfig(eps=F(1, 100), monotone_only=True)
        result = enumerate_pure_equilibria(prop34, cfg)
        assert result.status == "none"
        assert result.checked == 51 * 51  # per-bidder monotone map count squared

    def test_prop34_unrestricted_finds_nonmonotone(self, prop34):
        cfg = SearchConfig(eps=ZERO)
        result = enumerate_pure_equilibria(prop34, cfg)
        assert result.found
        assert verify_pbne(prop34, result.profile, ZERO).ok
        assert any(not check_monotone(s) for s in result.profile.strategies)

    def test_single_bidder_zero_is_equilibrium(self):
        prior = DiscretePrior(1, [(F(1, 4), F(3, 4))], [((F(1, 4),), F(1, 2)), ((F(3, 4),), F(1, 2))])
        auc = Auction(BidSpace([0, F(1, 8)]), prior)
        result = enumerate_pure_equilibria(auc, SearchConfig(eps=ZERO))
        assert result.found
        assert all(
            result.profile.strategies[0].bid_at(v) == 0 for v in (F(1, 4), F(3, 4))
        )

    def test_budget_exceeded_is_explicit(self, prop34):
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_pure_equilibria(prop34, SearchConfig(eps=ZERO, budget=10))
        assert exc.value.count == 66 * 66

    def test_monotone_filter_emits_monotone_profiles(self):
        rng = random.Random(17)
        for _ in range(10):
            auc = random_discrete_auction(rng)
            try:
                result = enumerate_pure_equilibria(
                    auc, SearchConfig(eps=F(1, 4), monotone_only=True, budget=200000)
                )
            except BudgetExceeded:
                continue
            if result.found:
                assert all(check_monotone(s) for s in result.profile.strategies)

    def test_none_agrees_with_recursive_generator(self):
        rng = random.Random(19)
        agreements = 0
        for _ in range(12):
            auc = random_discrete_auction(rng)
            values = [
                sorted(auc.prior.value_spaces[i]) for i in range(auc.n)
            ]
            supports = []
            from fpaeq.model import marginal

            for i in range(auc.n):
                supports.append(
                    sorted(v for v, m in marginal(auc.prior, i).items() if m > 0)
                )
            try:
                result = enumerate_pure_equilibria(
                    auc, SearchConfig(eps=ZERO, budget=100000)
                )
            except BudgetExceeded:
                continue
            # independent recursive enumeration over support values
            any_found = False
            for combo in all_pure_profiles(auc, monotone=False, values_per_bidder=supports):
                strategies = []
                for i in range(auc.n):
                    mapping = dict(zip(supports[i], combo[i]))
                    last = ZERO
                    full = {}
                    for v in values[i]:
                        if v in mapping:
                            last = mapping[v]
                        full[v] = last
                    strategies.append(PureStrategy(i, full))
                if verify_pbne(auc, Profile(strategies), ZERO).ok:
                    any_found = True
                    break
            assert any_found == result.found
            agreements += 1
        assert agreements >= 6  # most random draws stay within budget

    def test_search_log_records_verdicts(self, prop34):
        log = io.StringIO()
        enumerate_pure_equilibria(prop34, SearchConfig(eps=ZERO), log=log)
        lines = log.getvalue().strip().splitlines()
        assert lines
        digest, verdict, gain = lines[-1].split()
        assert verdict == "pass" and F(gain) == 0
        assert all(line.split()[1] == "fail" for line in lines[:-1])


class TestEnumerateSymmetric:
    def test_symmetric_equilibrium_verifies_on_expansion(self):
        sym = DiscretePrior(
            2,
            [(F(1, 4), F(3, 4))] * 2,
            [
                ((F(1, 4), F(1, 4)), F(3, 8)),
                ((F(3, 4), F(1, 4)), F(1, 8)),
                ((F(3, 4), F(3, 4)), F(3, 8)),
            ],
            [(0, 1)],
        )
        auc = Auction(BidSpace([0, F(1, 4)]), sym)
        result = enumerate_symmetric_pure(auc, SearchConfig(eps=ZERO))
        assert result.found
        expanded = Auction(auc.bids, sym.expanded)
        per_bidder = result.profile.expand(2)
        assert verify_pbne(expanded, per_bidder, ZERO).ok

    def test_no_symmetric_pure_equilibrium(self):
        # anti-correlated two-bidder prior: the bidder with the higher value
        # always faces the next value down, so common strategies chase each
        # other around the bid grid and never settle
        sym = DiscretePrior(
            2,
            [(F(1, 8), F(1, 2), F(7, 8))] * 2,
            [((F(7, 8), F(1, 2)), F(1, 6)), ((F(1, 2), F(1, 8)), F(1, 3))],
            [(0, 1)],
        )
        auc = Auction(BidSpace([0, F(1, 16), F(5, 16), F(9, 16)]), sym)
        result = enumerate_symmetric_pure(auc, SearchConfig(eps=ZERO))
        assert result.status == "none"
        # cross-check by brute force over all symmetric profiles on the
        # expanded instance
        expanded = Auction(auc.bids, sym.expanded)
        values = (F(1, 8), F(1, 2), F(7, 8))
        import itertools

        for combo in itertools.product(list(auc.bids), repeat=3):
            if any(b > v for b, v in zip(combo, values)):
                continue
            prof = Profile(
                [PureStrategy(i, dict(zip(values, combo))) for i in range(2)]
            )
            assert not verify_pbne(expanded, prof, ZERO).ok

    def test_single_bid_space_returns_all_zero(self):
        sym = DiscretePrior(2, [(F(1, 2),)] * 2, [((F(1, 2), F(1, 2)), F(1))], [(0, 1)])
        auc = Auction(BidSpace([0]), sym)
        result = enumerate_symmetric_pure(auc, SearchConfig(eps=ZERO))
        assert result.found
        assert result.profile.strategies[0].bid_at(F(1, 2)) == 0


class TestShrink:
    def test_tenths_grid_to_five(self):
        bids = BidSpace([F(k, 10) for k in range(11)])
        shrunk = shrink_bidspace(bids, 5)
        assert list(shrunk.bids) == [ZERO, F(1, 5), F(1, 2), F(7, 10), F(1)]
        assert shrunk.guarantee == F(1, 4)

    def test_identity_when_buckets_fine(self):
        bids = BidSpace([0, F(1, 2), F(1)])
        shrunk = shrink_bidspace(bids, 5)
        assert list(shrunk.bids) == [0, F(1, 2), F(1)]

    def test_trivial_space(self):
        shrunk = shrink_bidspace(BidSpace([0]), 2)
        assert list(shrunk.bids) == [0]
        assert shrunk.guarantee == 1

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            shrink_bidspace(BidSpace([0]), 1)

    def test_cardinality_and_bucket_neighbour(self):
        # every original bid keeps its bucket's maximum: a kept bid at most
        # one bucket width above it, which is what the deviation-loss
        # argument consumes (deviating slightly up keeps the win probability)
        rng = random.Random(29)
        for _ in range(30):
            pool = sorted(rng.sample([F(k, 40) for k in range(1, 41)], rng.randint(1, 12)))
            bids = BidSpace([ZERO] + pool)
            M = rng.randint(2, 8)
            shrunk = shrink_bidspace(bids, M)
            assert len(shrunk.bids) <= M
            assert set(shrunk.bids.bids) <= set(bids.bids)
            for b in bids:
                upper = [c for c in shrunk.bids if b <= c < b + shrunk.guarantee]
                assert upper, f"no kept bid within one bucket above {b}"

    def test_shrinkage_soundness_on_random_instances(self):
        rng = random.Random(31)
        found = 0
        for _ in range(25):
            auc = random_discrete_auction(rng)
            M = rng.randint(2, 4)
            shrunk = shrink_bidspace(auc.bids, M)
            small = Auction(shrunk.bids, auc.prior)
            eps = F(1, 20)
            try:
                result = enumerate_pure_equilibria(
                    small, SearchConfig(eps=eps, budget=300000)
                )
            except BudgetExceeded:
                continue
            if not result.found:
                continue
            found += 1
            report = verify_pbne(auc, result.profile, eps + shrunk.guarantee)
            assert report.ok
        assert found >= 5


class TestJumpGridSearch:
    def test_uniform_square_coarse_grid(self, uniform_box2):
        auc = Auction(BidSpace([0, F(1, 4)]), uniform_box2.prior)
        result = jump_grid_search(
            auc, SearchConfig(eps=F(1, 4)), grid=[0, F(1, 4), F(1, 2), F(3, 4), 1]
        )
        assert result.found
        assert verify_pbne(auc, result.profile, F(1, 4)).ok

    def test_finer_grid_shrinks_eps(self, apv_fixture):
        from fpaeq.reduction import lift_dfpa_to_cfpa

        lifted = lift_dfpa_to_cfpa(apv_fixture, F(1, 8))
        coarse = jump_grid_search(
            lifted.cfpa, SearchConfig(eps=F(1, 4)), grid=[0, F(1, 4), 1]
        )
        fine = jump_grid_search(lifted.cfpa, SearchConfig(eps=ZERO))
        assert coarse.found and fine.found
        assert verify_pbne(lifted.cfpa, fine.profile, ZERO).ok

    def test_trivial_grid_single_bid(self):
        prior = BoxDensity(2, [((0, 0), (1, 1), 1)], None)
        auc = Auction(BidSpace([0]), prior)
        result = jump_grid_search(auc, SearchConfig(eps=ZERO), grid=[0, 1])
        assert result.found
        assert result.profile.strategies[0].thresholds == (ZERO, F(1))

    def test_symmetric_search_uses_groups(self, two_box_sapv):
        auc = Auction(BidSpace([0, F(1, 4)]), two_box_sapv.prior)
        result = jump_grid_search(
            auc,
            SearchConfig(eps=F(1, 8), symmetric=True),
            grid=[0, F(1, 4), F(1, 2), F(3, 4), 1],
        )
        assert result.found
        assert result.profile.groups == ((0, 1),)

    def test_nonpositive_mesh_rejected(self, uniform_box2):
        for mesh in (0, -2):
            with pytest.raises(ValueError, match="mesh"):
                default_jump_grid(uniform_box2, mesh=mesh)
        unrefined = default_jump_grid(uniform_box2)
        assert set(unrefined) < set(default_jump_grid(uniform_box2, mesh=8))

    def test_budget_counts_vectors(self, uniform_box2):
        grid = default_jump_grid(uniform_box2, mesh=4)
        per_bidder = count_jump_vectors(uniform_box2.bids, grid)
        with pytest.raises(BudgetExceeded) as exc:
            jump_grid_search(
                uniform_box2,
                SearchConfig(eps=ZERO, budget=per_bidder**2 - 1),
                grid=grid,
            )
        assert exc.value.count == per_bidder**2

    def test_per_seat_jump_search_reads_only_tables(self, uniform_box2, monkeypatch):
        """A per-seat candidate is looked up in its bidders' gain tables and
        never runs the verifier's deviation loop; a symmetric one does."""
        calls = []
        deviations = engine.bidder_deviations

        def counting(*args):
            calls.append(1)
            return deviations(*args)

        monkeypatch.setattr(engine, "bidder_deviations", counting)
        auc = Auction(BidSpace([0, F(1, 4), F(1, 2)]), uniform_box2.prior)
        grid = default_jump_grid(auc, mesh=4)
        per_seat = jump_grid_search(auc, SearchConfig(eps=F(1, 20)), grid=grid)
        assert per_seat.checked > 1 and not calls
        grouped = Auction(auc.bids, BoxDensity(2, auc.prior.boxes, [(0, 1)]))
        jump_grid_search(grouped, SearchConfig(eps=F(1, 20), symmetric=True), grid=grid)
        assert calls


SEARCH_SETTINGS = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _same_as_reference(auc, cfg, kind, grid=None):
    """Logged and unlogged runs agree with the per-candidate reference on
    status, checked, profile and log text."""
    run = {
        "pure": enumerate_pure_equilibria,
        "symmetric": enumerate_symmetric_pure,
        "jump": lambda a, c, log: jump_grid_search(a, c, grid=grid, log=log),
    }[kind]
    ref_log, log = io.StringIO(), io.StringIO()
    ref = ref_search(auc, cfg, kind, log=ref_log, grid=grid)
    for result in (run(auc, cfg, log=log), run(auc, cfg, log=None)):
        assert (result.status, result.checked) == (ref.status, ref.checked)
        assert result.profile == ref.profile
    assert log.getvalue() == ref_log.getvalue()


def _iid_gap(rng) -> Auction:
    """Two iid bidders on a marginal over eighths with one zero-density piece."""
    bps = [F(0)] + sorted(rng.sample([F(k, 8) for k in range(1, 8)], rng.randint(2, 3))) + [F(1)]
    weights = [rng.randint(1, 3) for _ in bps[1:]]
    weights[rng.randrange(len(weights))] = 0
    total = sum((b - a) * w for a, b, w in zip(bps, bps[1:], weights))
    bids = [F(0)] + sorted(rng.sample([F(j, 16) for j in range(1, 17)], 2))
    return Auction(BidSpace(bids), IIDMarginal(bps, [w / total for w in weights]), 2)


def _two_box(rng, grouped: bool) -> Auction:
    """Two random boxes on eighths, listed asymmetrically; ``grouped`` makes
    the prior stand for their images under swapping the two seats.  The
    union rarely covers the square, so marginals have zero-density pieces."""
    boxes = []
    for _ in range(2):
        edges = [sorted(rng.sample([F(k, 8) for k in range(9)], 2)) for _ in range(2)]
        boxes.append((tuple(e[0] for e in edges), tuple(e[1] for e in edges), rng.randint(1, 3)))
    prior = BoxDensity(2, boxes, [(0, 1)] if grouped else None)
    prior = BoxDensity(2, [(lo, hi, w / prior.total_mass) for lo, hi, w in boxes], prior.groups)
    bids = [F(0)] + sorted(rng.sample([F(j, 16) for j in range(1, 17)], 2))
    return Auction(BidSpace(bids), prior)


class TestMatchesReference:
    @SEARCH_SETTINGS
    @given(
        rng=st.randoms(use_true_random=False),
        kind=st.sampled_from(["discrete", "symmetric-prior", "symmetric"]),
        eps=st.sampled_from([ZERO, F(1, 20)]),
        monotone=st.booleans(),
    )
    def test_discrete(self, rng, kind, eps, monotone):
        if kind == "discrete":
            auc = random_discrete_auction(rng)
        else:
            auc = random_symmetric_auction(rng)
        cfg = SearchConfig(eps=eps, monotone_only=monotone)
        _same_as_reference(auc, cfg, "symmetric" if kind == "symmetric" else "pure")

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rng=st.randoms(use_true_random=False),
        kind=st.sampled_from(["nested-cube", "iid-gap", "two-box"]),
        symmetric=st.booleans(),
        eps=st.sampled_from([ZERO, F(1, 20)]),
    )
    def test_jump(self, rng, kind, symmetric, eps):
        """Per-seat and symmetric, on full support, on an iid marginal with a
        zero-density piece and on two boxes listed asymmetrically (grouped
        when symmetric), with grids that leave out some axis cuts."""
        if kind == "two-box":
            auc = _two_box(rng, grouped=symmetric)
        else:
            auc = (nested_cube_sapv if kind == "nested-cube" else _iid_gap)(rng)
        auc = Auction(BidSpace(list(auc.bids)[: rng.randint(2, 3)]), auc.prior, auc.n)
        grid = sorted(rng.sample([F(k, 8) for k in range(9)], 3))
        _same_as_reference(auc, SearchConfig(eps=eps, symmetric=symmetric), "jump", grid)


class TestSharedTables:
    """Bidder i's table depends on the other seats only: a 2-bidder walk
    builds at most one game per choice of each seat."""

    @pytest.fixture
    def games(self, monkeypatch):
        built = []

        class Counting(engine._Game):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "_Game", Counting)
        return built

    def test_enumerate_pure(self, prop34, games):
        auc = Auction(BidSpace([F(k, 7) for k in range(8)]), prop34.prior)
        result = enumerate_pure_equilibria(auc, SearchConfig(monotone_only=True))
        assert (result.status, result.checked) == ("none", 26 * 26)
        assert 0 < len(games) <= 26 + 26

    def test_jump_grid_search(self, uniform_box2, games):
        auc = Auction(BidSpace([0, F(1, 4), F(1, 2)]), uniform_box2.prior)
        grid = default_jump_grid(auc, mesh=4)
        vectors = count_jump_vectors(auc.bids, grid)
        result = jump_grid_search(auc, SearchConfig(eps=ZERO), grid=grid)
        assert (result.status, result.checked) == ("none", vectors**2)
        assert 0 < len(games) <= 2 * vectors
