import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpaeq.model import (
    Auction,
    BidSpace,
    BoxDensity,
    IIDMarginal,
    JumpStrategy,
    MixedStrategy,
    Profile,
    PureStrategy,
)
from fpaeq.serialize import (
    FormatError,
    dumps,
    fmt,
    instance_from_doc,
    instance_to_doc,
    load_instance,
    load_profile,
    load_strategy,
    profile_from_doc,
    profile_to_doc,
    save_instance,
    save_profile,
    strategy_from_doc,
    strategy_to_doc,
)
from conftest import (
    nested_cube_sapv,
    random_discrete_auction,
    random_rationals,
    random_symmetric_auction,
)

F = Fraction


class TestRationalEncoding:
    def test_fmt_forms(self):
        assert fmt(F(3, 4)) == "3/4"
        assert fmt(F(5)) == "5"
        assert fmt(F(0)) == "0"

    def test_doc_is_pure_json(self, prop34):
        text = dumps(instance_to_doc(prop34))
        json.loads(text)


class TestInstanceRoundTrip:
    def test_dfpa(self):
        rng = random.Random(37)
        for _ in range(15):
            auction = random_discrete_auction(rng)
            back = instance_from_doc(
                json.loads(dumps(instance_to_doc(auction)))
            )
            assert back == auction

    def test_dfpa_sym(self):
        rng = random.Random(41)
        for _ in range(15):
            auction = random_symmetric_auction(rng)
            back = instance_from_doc(
                json.loads(dumps(instance_to_doc(auction)))
            )
            assert back == auction

    def test_cfpa_box(self, two_box_sapv, uniform_box2):
        for auction in (two_box_sapv, uniform_box2):
            back = instance_from_doc(
                json.loads(dumps(instance_to_doc(auction)))
            )
            assert back == auction

    def test_cfpa_iid(self):
        auction = Auction(
            BidSpace([0, F(1, 3)]),
            IIDMarginal([0, F(1, 2), 1], [F(3, 2), F(1, 2)]),
            n=3,
        )
        back = instance_from_doc(json.loads(dumps(instance_to_doc(auction))))
        assert back == auction

    def test_unknown_field_rejected(self, prop34):
        doc = instance_to_doc(prop34)
        doc["surprise"] = 1
        with pytest.raises(FormatError, match="unknown fields"):
            instance_from_doc(doc)

    def test_missing_field_rejected(self, prop34):
        doc = instance_to_doc(prop34)
        del doc["support"]
        with pytest.raises(FormatError, match="missing field"):
            instance_from_doc(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError, match="unknown instance kind"):
            instance_from_doc({"kind": "spa"})


class TestStrategyRoundTrip:
    def test_pure(self):
        s = PureStrategy(1, {F(0): F(0), F(1, 2): F(3, 10)})
        assert strategy_from_doc(json.loads(dumps(strategy_to_doc(s)))) == s

    def test_mixed(self):
        s = MixedStrategy(
            0, [(F(1, 2), [(F(0), F(1, 3)), (F(3, 10), F(2, 3))])]
        )
        assert strategy_from_doc(json.loads(dumps(strategy_to_doc(s)))) == s

    def test_jump(self):
        s = JumpStrategy(BidSpace([0, F(1, 4)]), [0, F(5, 7), 1])
        assert strategy_from_doc(json.loads(dumps(strategy_to_doc(s)))) == s

    def test_profile_with_groups(self):
        s = JumpStrategy(BidSpace([0, F(1, 4)]), [0, F(1, 2), 1])
        p = Profile([s], groups=[(0, 1)])
        assert profile_from_doc(json.loads(dumps(profile_to_doc(p)))) == p

    def test_unknown_strategy_field(self):
        s = PureStrategy(0, {F(0): F(0)})
        doc = strategy_to_doc(s)
        doc["assignments"][0]["note"] = "x"
        with pytest.raises(FormatError):
            strategy_from_doc(doc)


# ---------------------------------------------------------------------------
# load -> save is byte-exact, and equal values in one document are one object
# ---------------------------------------------------------------------------

EIGHTHS = [F(k, 8) for k in range(1, 8)]


def _random_instance(rng, kind):
    if kind == "dfpa":
        return random_discrete_auction(rng)
    if kind == "dfpa-sym":
        return random_symmetric_auction(rng)
    if kind in ("cfpa-box", "cfpa-box-grouped"):
        auc = nested_cube_sapv(rng, n=rng.randint(2, 3))
        if kind == "cfpa-box":
            auc = Auction(auc.bids, BoxDensity(auc.n, auc.prior.expanded_boxes, None))
        return auc
    bps = [F(0)] + sorted(rng.sample(EIGHTHS, rng.randint(1, 3))) + [F(1)]
    weights = [rng.randint(0, 3) for _ in bps[1:]]
    weights[rng.randrange(len(weights))] += 1  # one positive piece at least
    total = sum((b - a) * w for a, b, w in zip(bps, bps[1:], weights))
    bids = [F(0)] + sorted(rng.sample(EIGHTHS, 2))
    return Auction(BidSpace(bids), IIDMarginal(bps, [w / total for w in weights]), 3)


def _random_strategy(rng, kind, bidder):
    values = sorted(rng.sample([F(0)] + EIGHTHS, rng.randint(1, 3)))
    bids = [F(0)] + sorted(rng.sample(EIGHTHS, rng.randint(1, 3)))
    if kind == "pure":
        return PureStrategy(bidder, {v: rng.choice(bids) for v in values})
    if kind == "mixed":
        rows = {}
        for v in values:
            support = rng.sample(bids, rng.randint(1, len(bids)))
            rows[v] = dict(zip(support, random_rationals(rng, len(support), den=3)))
        return MixedStrategy(bidder, rows)
    xs = sorted(rng.choice([F(0)] + EIGHTHS + [F(1)]) for _ in bids[1:])
    return JumpStrategy(bids, [F(0)] + [max(x, b) for x, b in zip(xs, bids[1:])] + [F(1)])


def _fractions(obj):
    """Every Fraction held by a model object."""
    if isinstance(obj, Fraction):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _fractions(x)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _fractions(getattr(obj, field.name))


def _resaved(tmp_path, obj, save, load):
    """Text of obj saved once, the loaded object, and the text it saves to."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(obj, str(first))
    back = load(str(first))
    save(back, str(second))
    return first.read_bytes(), back, second.read_bytes()


ROUND_TRIP = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


class TestLoadSaveProperties:
    @ROUND_TRIP
    @given(
        rng=st.randoms(use_true_random=False),
        kind=st.sampled_from(["dfpa", "dfpa-sym", "cfpa-box", "cfpa-box-grouped", "cfpa-iid"]),
    )
    def test_instance(self, tmp_path, rng, kind):
        auction = _random_instance(rng, kind)
        first, back, second = _resaved(tmp_path, auction, save_instance, load_instance)
        assert first == second and back == auction
        xs = list(_fractions(back))
        assert len({id(x) for x in xs}) == len(set(xs))

    @ROUND_TRIP
    @given(rng=st.randoms(use_true_random=False), kind=st.sampled_from(["pure", "mixed", "jump"]))
    def test_strategy(self, tmp_path, rng, kind):
        strategy = _random_strategy(rng, kind, rng.randint(0, 3))
        def save(s, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps(strategy_to_doc(s)))

        first, back, second = _resaved(tmp_path, strategy, save, load_strategy)
        assert first == second and back == strategy
        xs = list(_fractions(back))
        assert len({id(x) for x in xs}) == len(set(xs))

    @ROUND_TRIP
    @given(
        rng=st.randoms(use_true_random=False),
        kind=st.sampled_from(["pure", "mixed", "jump"]),
        grouped=st.booleans(),
    )
    def test_profile(self, tmp_path, rng, kind, grouped):
        seats = rng.randint(1, 3)
        profile = Profile(
            [_random_strategy(rng, kind, s) for s in range(seats)],
            groups=[(s,) for s in range(seats)] if grouped else None,
        )
        first, back, second = _resaved(tmp_path, profile, save_profile, load_profile)
        assert first == second and back == profile
        xs = list(_fractions(back))
        assert len({id(x) for x in xs}) == len(set(xs))
