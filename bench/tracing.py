"""Per-layer tracing by wrapping fpaeq's public functions from outside.

A wrapper replaces a module or class attribute where the caller looks the
name up (``engine.marginal_mass`` as well as ``model.marginal_mass``, since
``engine`` imports the name), so internal calls such as
``densify_solve -> eval_beta -> max_order_cdf`` pass through it too.  The
program's own code is not touched, and ``Tracer.installed`` puts every
original back when it exits.

Most functions record one span per call: name, start, end, parent and op.
The hottest ones (``HOT``) are aggregated per op instead -- count, total time
and tie-DP width -- so that tracing them stays cheap.  A layer's self time is
its span's duration minus the time of its direct children, spans and hot
calls alike.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter


def _boxes_built(box_density) -> int:
    return len(box_density.boxes)


def _candidates_checked(result) -> int:
    return result.checked


def _tie_width(args) -> int:
    return len(args[0])


# (module, class or None, attribute, span name, extra recorded from the result)
SPANS = [
    ("fpaeq.cli", None, "main", "cli.main", None),
    ("fpaeq.cli", None, "load_instance", "serialize.load", None),
    ("fpaeq.cli", None, "load_profile", "serialize.load", None),
    ("fpaeq.cli", None, "dumps", "serialize.dumps", None),
    ("fpaeq.search", None, "dumps", "serialize.dumps", None),
    ("fpaeq.serialize", None, "dumps", "serialize.dumps", None),
    ("fpaeq.cli", None, "validate_instance", "model.validate_instance", None),
    (
        "fpaeq.model",
        "IIDMarginal",
        "as_box_density",
        "model.IIDMarginal.as_box_density",
        _boxes_built,
    ),
    ("fpaeq.engine", None, "verify_pbne", "engine.verify_pbne", None),
    ("fpaeq.engine", None, "utility", "engine.utility", None),
    ("fpaeq.search", None, "enumerate_pure_equilibria", "search", _candidates_checked),
    ("fpaeq.search", None, "enumerate_symmetric_pure", "search", _candidates_checked),
    ("fpaeq.search", None, "jump_grid_search", "search", _candidates_checked),
    ("fpaeq.densify", None, "densify_solve", "densify", None),
    ("fpaeq.densify", None, "eval_beta", "densify.eval_beta", None),
    ("fpaeq.densify", None, "max_order_cdf", "densify.max_order_cdf", None),
    ("fpaeq.densify", None, "approx_invert", "densify.approx_invert", None),
    ("fpaeq.densify", None, "bounds_profile", "densify.bounds_profile", None),
    ("fpaeq.reduction", None, "build_auction", "reduction.build_auction", None),
    ("fpaeq.reduction", None, "encode_profile", "reduction.encode_profile", None),
]

# (module, class or None, attribute, name, width read from the arguments)
HOT = [
    ("fpaeq.engine", None, "tie_dp", "engine.tie_dp", _tie_width),
    ("fpaeq.model", "BidSpace", "index", "model.BidSpace.index", None),
    ("fpaeq.model", None, "marginal_mass", "model.marginal_mass", None),
    ("fpaeq.engine", None, "marginal_mass", "model.marginal_mass", None),
    ("fpaeq.model", "Profile", "expand", "model.Profile.expand", None),
]


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def patch_targets() -> list:
    """(owner, attribute) of every wrapped name."""
    return [(_owner(m, c), attr) for m, c, attr, _, _ in SPANS + HOT]


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child", "extra")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = None
        self.child = 0.0
        self.extra = 0  # boxes built, or candidates checked

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Spans and hot-call aggregates of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict = {}  # (op, name) -> [count, seconds, width sum, width max]
        self._stack: list[Span] = []
        self.op = None

    def _span(self, name, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.duration
            if extra is not None:
                span.extra = extra(result)
            return result

        return wrapper

    def _hot(self, name, fn, width=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if self._stack:
                    self._stack[-1].child += dt
                agg = self.hot.setdefault((self.op, name), [0, 0.0, 0, 0])
                agg[0] += 1
                agg[1] += dt
                if width is not None:
                    w = width(args)
                    agg[2] += w
                    agg[3] = max(agg[3], w)

        return wrapper

    @contextmanager
    def installed(self, op):
        """Wrap every listed function for the duration of the block."""
        self.op = op
        saved = []
        try:
            for wrap, table in ((self._span, SPANS), (self._hot, HOT)):
                for module, cls, attr, name, extra in table:
                    owner = _owner(module, cls)
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.op = None

    def write(self, path) -> None:
        """All spans and hot aggregates as JSON lines."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                rec = {
                    "id": k,
                    "name": s.name,
                    "op": s.op,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "start": s.start,
                    "end": s.end,
                }
                fh.write(json.dumps(rec) + "\n")
            for (op, name), (count, secs, wsum, wmax) in sorted(self.hot.items()):
                rec = {"hot": name, "op": op, "calls": count, "seconds": secs}
                if name == "engine.tie_dp":
                    rec.update(width_sum=wsum, width_max=wmax)
                fh.write(json.dumps(rec) + "\n")

    # ------------------------------------------------------------------
    # per-layer metrics
    # ------------------------------------------------------------------

    def layer_metrics(self, ops: set, setups: set) -> dict:
        """Per-op layer metrics over the measured ``ops``; the reduction
        layer is read from the ``setups`` that generated their inputs."""
        n = len(ops)
        spans = [s for s in self.spans if s.op in ops]
        setup_spans = [s for s in self.spans if s.op in setups]

        def named(name, pool=spans):
            return [s for s in pool if s.name == name]

        def calls(name):
            return len(named(name)) / n

        def self_s(name, pool=spans):
            return sum(s.self_time for s in named(name, pool)) / n

        def under(span, ancestor):
            p = span.parent
            while p is not None:
                if p.name == ancestor:
                    return True
                p = p.parent
            return False

        def hot(name):
            rows = [v for (op, nm), v in self.hot.items() if op in ops and nm == name]
            return (
                sum(r[0] for r in rows),
                sum(r[1] for r in rows),
                sum(r[2] for r in rows),
                max((r[3] for r in rows), default=0),
            )

        def ratio(a, b):
            return a / b if b else 0.0

        tie_calls, tie_s, tie_wsum, tie_wmax = hot("engine.tie_dp")
        boxes = named("model.IIDMarginal.as_box_density")
        searches = named("search")
        checked = sum(s.extra for s in searches)
        densify = named("densify")
        inversions = named("densify.approx_invert")
        return {
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "serialize.load.s": (self_s("serialize.load"), "s"),
            "serialize.dumps.s": (self_s("serialize.dumps"), "s"),
            "model.validate_instance.s": (self_s("model.validate_instance"), "s"),
            "model.BidSpace.index.calls": (hot("model.BidSpace.index")[0] / n, "count"),
            "model.marginal_mass.calls": (hot("model.marginal_mass")[0] / n, "count"),
            "model.Profile.expand.calls": (hot("model.Profile.expand")[0] / n, "count"),
            "model.IIDMarginal.as_box_density.calls": (len(boxes) / n, "count"),
            "model.IIDMarginal.as_box_density.boxes": (
                sum(s.extra for s in boxes) / n,
                "count",
            ),
            "engine.verify_pbne.calls": (calls("engine.verify_pbne"), "count"),
            "engine.verify_pbne.self_s": (self_s("engine.verify_pbne"), "s"),
            "engine.utility.calls": (calls("engine.utility"), "count"),
            "engine.utility.self_s": (self_s("engine.utility"), "s"),
            "engine.tie_dp.calls": (tie_calls / n, "count"),
            "engine.tie_dp.width_mean": (ratio(tie_wsum, tie_calls), "count"),
            "engine.tie_dp.width_max": (tie_wmax, "count"),
            "engine.tie_dp.self_s": (tie_s / n, "s"),
            "search.self_s": (self_s("search"), "s"),
            "search.checked": (checked / n, "count"),
            "search.utility_calls_per_candidate": (
                ratio(sum(under(s, "search") for s in named("engine.utility")), checked),
                "ratio",
            ),
            "search.verify_calls_per_candidate": (
                ratio(sum(under(s, "search") for s in named("engine.verify_pbne")), checked),
                "ratio",
            ),
            "densify.self_s": (self_s("densify"), "s"),
            "densify.eval_beta.calls": (calls("densify.eval_beta"), "count"),
            "densify.eval_beta.self_s": (self_s("densify.eval_beta"), "s"),
            "densify.max_order_cdf.calls": (calls("densify.max_order_cdf"), "count"),
            "densify.max_order_cdf.self_s": (self_s("densify.max_order_cdf"), "s"),
            "densify.approx_invert.calls": (calls("densify.approx_invert"), "count"),
            "densify.beta_calls_per_inversion": (
                ratio(
                    sum(under(s, "densify.approx_invert") for s in named("densify.eval_beta")),
                    len(inversions),
                ),
                "ratio",
            ),
            "densify.bounds_profile.s": (self_s("densify.bounds_profile"), "s"),
            "densify.verify_share": (
                ratio(
                    sum(
                        s.duration
                        for s in named("engine.verify_pbne")
                        if under(s, "densify")
                    ),
                    sum(s.duration for s in densify),
                ),
                "ratio",
            ),
            "reduction.build_auction.s": (
                self_s("reduction.build_auction", setup_spans),
                "s",
            ),
            "reduction.encode_profile.s": (
                self_s("reduction.encode_profile", setup_spans),
                "s",
            ),
        }
