import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fpaeq.model import (
    Auction,
    BidSpace,
    BoxDensity,
    DiscretePrior,
    MixedStrategy,
    Profile,
    PureStrategy,
)

F = Fraction


@pytest.fixture
def prop34() -> Auction:
    """Two bidders, values uniform over {(0,1), (1/2,1/2), (1,0)}, the
    0..1-by-tenths bidding space; monotone equilibria do not exist here."""
    prior = DiscretePrior(
        2,
        [(0, F(1, 2), 1)] * 2,
        [
            ((0, F(1)), F(1, 3)),
            ((F(1, 2), F(1, 2)), F(1, 3)),
            ((F(1), F(0)), F(1, 3)),
        ],
    )
    return Auction(BidSpace([F(k, 10) for k in range(11)]), prior)


@pytest.fixture
def prop34_nonmonotone(prop34) -> Profile:
    mapping = {F(0): F(0), F(1, 2): F(3, 10), F(1): F(1, 10)}
    return Profile([PureStrategy(i, mapping) for i in range(2)])


@pytest.fixture
def uniform_box2() -> Auction:
    """Uniform joint density on the unit square, bids {0, 1/4, 1/2, 3/4}."""
    prior = BoxDensity(2, [((0, 0), (1, 1), 1)], None)
    return Auction(BidSpace([0, F(1, 4), F(1, 2), F(3, 4)]), prior)


@pytest.fixture
def two_box_sapv() -> Auction:
    """Full-support symmetric prior: density 1/2 off and 5/2 on [1/2,1]^2."""
    prior = BoxDensity(
        2,
        [((0, 0), (1, 1), F(1, 2)), ((F(1, 2), F(1, 2)), (1, 1), 2)],
        groups=[(0, 1)],
    )
    return Auction(BidSpace([0, F(1, 8), F(1, 4), F(3, 8), F(1, 2)]), prior)


@pytest.fixture
def apv_fixture() -> Auction:
    """Correlated two-point APV prior used by the lift pipeline tests."""
    lo, hi = F(1, 4), F(3, 4)
    prior = DiscretePrior(
        2,
        [(lo, hi)] * 2,
        [
            ((lo, lo), F(3, 8)),
            ((lo, hi), F(1, 8)),
            ((hi, lo), F(1, 8)),
            ((hi, hi), F(3, 8)),
        ],
    )
    return Auction(BidSpace([0, F(1, 4)]), prior)


def random_rationals(rng: random.Random, count: int, den: int = 12) -> list[Fraction]:
    """Strictly positive masses that sum to exactly one."""
    cuts = sorted(rng.sample(range(1, den * count), count - 1)) if count > 1 else []
    bounds = [0] + cuts + [den * count]
    return [F(b - a, den * count) for a, b in zip(bounds, bounds[1:])]


def random_discrete_auction(rng: random.Random) -> Auction:
    """Small random DFPA: n <= 3, |B| <= 4, |V_i| <= 3."""
    n = rng.randint(2, 3)
    grid = [F(k, 8) for k in range(9)]
    spaces = []
    for _ in range(n):
        size = rng.randint(1, 3)
        spaces.append(tuple(sorted(rng.sample(grid, size))))
    want = rng.randint(2, 4)
    import itertools

    pool = list(itertools.product(*spaces))
    rng.shuffle(pool)
    tuples = pool[: min(want, len(pool))]
    masses = random_rationals(rng, len(tuples))
    prior = DiscretePrior(n, spaces, list(zip(tuples, masses)))
    nbids = rng.randint(2, 4)
    bids = [F(0)] + sorted(rng.sample([F(k, 9) for k in range(1, 10)], nbids - 1))
    return Auction(BidSpace(bids), prior)


def random_mixed_profile(rng: random.Random, auction: Auction) -> Profile:
    """Arbitrary (not necessarily monotone) full-support mixed profile."""
    strategies = []
    for i in range(auction.n):
        table = []
        for v in auction.prior.value_spaces[i]:
            k = rng.randint(1, min(2, len(auction.bids)))
            support = rng.sample(list(auction.bids), k)
            weights = random_rationals(rng, k, den=6)
            table.append((v, list(zip(support, weights))))
        strategies.append(MixedStrategy(i, table))
    return Profile(strategies)


def random_monotone_mixed(rng: random.Random, auction: Auction, i: int) -> MixedStrategy:
    """Monotone mixed strategy: supports advance weakly across values and
    overlap in at most the shared boundary bid."""
    bids = list(auction.bids)
    table = []
    ptr = 0
    for v in auction.prior.value_spaces[i]:
        split = ptr + 1 < len(bids) and rng.random() < 0.4
        if split:
            w = F(rng.randint(1, 5), 6)
            table.append((v, [(bids[ptr], 1 - w), (bids[ptr + 1], w)]))
            ptr += 1
        else:
            table.append((v, [(bids[ptr], F(1))]))
        if ptr + 1 < len(bids) and rng.random() < 0.5:
            ptr += 1
    return MixedStrategy(i, table)


def random_apv_auction(rng: random.Random) -> Auction:
    """Random full-support affiliated prior from a log-supermodular kernel:
    f(v) proportional to prod_i a_i(v_i) * q^(sum_{i<j} idx_i * idx_j)."""
    n = rng.randint(2, 3)
    size = rng.randint(2, 3)
    grid = sorted(rng.sample([F(k, 8) for k in range(9)], size))
    q = F(rng.randint(2, 4), rng.randint(1, 2))
    per = [[F(rng.randint(1, 4)) for _ in range(size)] for _ in range(n)]
    import itertools

    raw = {}
    for idxs in itertools.product(range(size), repeat=n):
        mass = F(1)
        for i, ix in enumerate(idxs):
            mass *= per[i][ix]
        expo = sum(
            idxs[i] * idxs[j] for i in range(n) for j in range(i + 1, n)
        )
        raw[tuple(grid[ix] for ix in idxs)] = mass * q**expo
    total = sum(raw.values())
    support = [(t, m / total) for t, m in sorted(raw.items())]
    prior = DiscretePrior(n, [tuple(grid)] * n, support)
    nbids = rng.randint(2, 4)
    bids = [F(0)] + sorted(rng.sample([F(k, 9) for k in range(1, 10)], nbids - 1))
    return Auction(BidSpace(bids), prior)


def random_symmetric_auction(rng: random.Random) -> Auction:
    """Random group-symmetric discrete prior (canonical representation)."""
    import itertools

    layouts = [[2], [3], [2, 1], [2, 2], [1, 1]]
    layout = rng.choice(layouts)
    n = sum(layout)
    groups, start = [], 0
    for size in layout:
        groups.append(tuple(range(start, start + size)))
        start += size
    group_values = []
    for _ in layout:
        size = rng.randint(1, 2)
        group_values.append(tuple(sorted(rng.sample([F(k, 8) for k in range(9)], size))))
    canon_pool = []
    per_group = [
        [
            tuple(sorted(c, reverse=True))
            for c in itertools.combinations_with_replacement(vals, size)
        ]
        for vals, size in zip(group_values, layout)
    ]
    for combo in itertools.product(*per_group):
        canon_pool.append(tuple(v for block in combo for v in block))
    rng.shuffle(canon_pool)
    chosen = canon_pool[: rng.randint(1, min(3, len(canon_pool)))]
    from fpaeq.model import multiplicity

    mults = [multiplicity(t, groups) for t in chosen]
    weights = random_rationals(rng, len(chosen))
    probs = [w / m for w, m in zip(weights, mults)]
    spaces = [vals for vals, g in zip(group_values, groups) for _ in g]
    prior = DiscretePrior(n, spaces, list(zip(chosen, probs)), groups)
    nbids = rng.randint(2, 3)
    bids = [F(0)] + sorted(rng.sample([F(k, 9) for k in range(1, 10)], nbids - 1))
    return Auction(BidSpace(bids), prior)


def nested_cube_sapv(rng: random.Random, n: int = 2) -> Auction:
    """Random full-support SAPV prior: base density plus bumps on nested
    upper cubes [t,1]^n (always affiliated)."""
    k = rng.randint(1, 2)
    ts = sorted(rng.sample([F(j, 8) for j in range(1, 8)], k))
    base = F(rng.randint(1, 3), 4)
    bumps = [F(rng.randint(1, 4), 2) for _ in ts]
    boxes = [((F(0),) * n, (F(1),) * n, base)]
    for t, w in zip(ts, bumps):
        boxes.append(((t,) * n, (F(1),) * n, w))
    mass = base + sum(w * (1 - t) ** n for t, w in zip(ts, bumps))
    boxes = [(lo, hi, w / mass) for lo, hi, w in boxes]
    prior = BoxDensity(n, boxes, groups=[tuple(range(n))])
    bids = [F(0)] + sorted(rng.sample([F(j, 16) for j in range(1, 17)], 3))
    return Auction(BidSpace(bids), prior)
