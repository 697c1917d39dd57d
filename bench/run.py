#!/usr/bin/env python3
"""CLI-level benchmark of fpaeq.

Run from the repository root:

    python3 bench/run.py --workload sat-verify --seed 1 --seconds 20 --trace 0

One closed-loop client in this process calls ``fpaeq.cli.main(argv)`` with
stdout captured, one op after another, on inputs generated from the seed
(see ``workloads.py``).  Each op's output is checked outside the timed region.

``--trace 0`` measures for ``--seconds`` seconds of op time at the reference
CPU speed (see ``Clock``) and reports the end-to-end metrics.  ``--trace 1``
runs a fixed number of input rounds, each op once untraced and once with the
layer wrappers of ``tracing.py`` installed, and reports the per-layer
metrics; the spans are written to ``.bench_out/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the workload's shape, the environment and the per-op
stdout digests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sat-verify", "densify-iid", "densify-sapv", "search")
# op_tail_s is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
# A timed run also stops once its ops' wall time reaches this many times
# --seconds, however slow the CPU is.
WALL_CAP = 1.6
# Seconds that calibration_loop() takes on the reference CPU (one vCPU of an
# Intel Xeon machine while its sibling thread is idle).  See Clock.
REF_S = 0.0074


def calibration_loop() -> None:
    """Fixed exact-arithmetic work, independent of fpaeq, that gauges the
    CPU's current speed."""
    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction(k % 7, 11) * Fraction(5, k % 13 + 1)


class Clock:
    """Times intervals in seconds at the reference CPU speed.

    The CPU of a shared machine can switch between a fast and a slow state
    every ten to thirty seconds; on a 2-vCPU Intel Xeon the slow state took up
    to twice as long for the same work, and raw wall times of runs with the
    same inputs differed by up to 1.5x.
    One calibration loop runs after every timed interval.  An interval's wall
    time is scaled by REF_S over the median of the loops around it, WINDOW on
    either side: the window stays within one state, and the median ignores
    the millisecond stalls that single loops catch.
    """

    WINDOW = 2

    def __init__(self):
        self.walls: list[float] = []
        self.loops = [self._loop_s()]

    @staticmethod
    def _loop_s() -> float:
        t0 = perf_counter()
        calibration_loop()
        return perf_counter() - t0

    def time(self, fn, *args):
        """(result, interval id) of fn(*args)."""
        t0 = perf_counter()
        result = fn(*args)
        self.walls.append(perf_counter() - t0)
        self.loops.append(self._loop_s())
        return result, len(self.walls) - 1

    def scaled(self, k: int) -> float:
        """Seconds of interval ``k`` at the reference speed."""
        window = self.loops[max(0, k + 1 - self.WINDOW) : k + 1 + self.WINDOW]
        return self.walls[k] * REF_S / statistics.median(window)


def _import_fpaeq(clock):
    """Import the checkout's fpaeq three times, each from scratch; returns
    (cli module of the last import, interval ids)."""
    if not (SRC / "fpaeq" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fpaeq sources under {SRC}")
    os.environ.pop("FPAEQ_THREADS", None)
    sys.path.insert(0, str(SRC))
    ids = []
    for _ in range(3):
        for name in [m for m in sys.modules if m == "fpaeq" or m.startswith("fpaeq.")]:
            del sys.modules[name]
        cli, k = clock.time(importlib.import_module, "fpaeq.cli")
        ids.append(k)
    return cli, ids


def _call(cli, argv):
    """Untimed CLI call for setup and checks: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_op(cli, op):
    """One CLI op: (exit code or None, stdout, error or None)."""
    out = io.StringIO()
    code = error = None
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(op.argv)
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


def _judge(op, code, stdout, error):
    """Failure message for an op's result, or None when it passed."""
    if error is not None:
        return error
    if code not in op.expect:
        return f"exit code {code} not in {sorted(op.expect)}"
    try:
        return op.check(code, stdout)
    except (Exception, SystemExit) as exc:
        return f"output check raised {type(exc).__name__}: {exc}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "fpaeq").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Bench:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, workload, seed, workdir):
        self.clock = Clock()
        self.cli, self.import_ids = _import_fpaeq(self.clock)
        import workloads

        self.workloads = workloads
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.setup_ids: list[int] = []
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.info: dict = {}

    def import_s(self) -> float:
        return statistics.median(self.clock.scaled(k) for k in self.import_ids)

    def round(self, rnd: int, tag: str) -> list:
        """Generate one round of inputs; the time taken is a setup sample."""
        ops, k = self.clock.time(
            self.workloads.make_round,
            self.workload,
            self.seed,
            rnd,
            self.workdir / f"{tag}{rnd}",
            lambda argv: _call(self.cli, argv),
        )
        self.setup_ids.append(k)
        return ops

    def record(self, op, code, stdout, error, reference=None) -> None:
        """Check one op's result; ``reference`` is the stdout digest that an
        earlier run of the same input produced."""
        self.attempted += 1
        digest = _digest(stdout)
        self.digests.append(digest)
        fail = _judge(op, code, stdout, error)
        if fail is None and reference is not None and digest != reference:
            fail = "stdout differs from an earlier run of the same input"
        if fail is not None:
            self.failures.append(f"{op.kind}: {fail}")

    def warm_up(self) -> list:
        """Run round 0 once, unmeasured; returns its stdout digests."""
        ops = self.round(0, "warm")
        digests = [_digest(_run_op(self.cli, op)[1]) for op in ops]
        shutil.rmtree(self.workdir / "warm0")
        return digests

    def timed(self, seconds: float) -> dict:
        """Closed loop over fresh rounds until the ops took ``seconds`` at the
        reference speed, so that a run holds about the same number of ops
        whatever state the CPU is in."""
        warm = self.warm_up()
        op_ids: list[int] = []
        wall = scaled = 0.0
        rnd = 0
        while rnd == 0 or (scaled < seconds and wall < WALL_CAP * seconds):
            ops = self.round(rnd, "r")
            for j, op in enumerate(ops):
                (code, stdout, error), k = self.clock.time(_run_op, self.cli, op)
                op_ids.append(k)
                wall += self.clock.walls[k]
                scaled += self.clock.scaled(k)
                self.record(op, code, stdout, error, warm[j] if rnd == 0 else None)
            shutil.rmtree(self.workdir / f"r{rnd}")
            rnd += 1
        times = [self.clock.scaled(k) for k in op_ids]
        setup = statistics.median(self.clock.scaled(k) for k in self.setup_ids)
        tail_s, pct = tail(times)
        self.info = {
            "samples": len(times),
            "rounds": rnd,
            "op_tail_percentile": pct,
            "wall_op_seconds": wall,
            "wall_op_p50_s": statistics.median(self.clock.walls[k] for k in op_ids),
        }
        return {
            "throughput_ops_s": (len(times) / sum(times), "ops/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_s, "s"),
            "ok_frac": (1 - len(self.failures) / self.attempted, "ratio"),
            "setup_s": (self.import_s() + setup, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB",
            ),
        }

    def traced(self, rounds: int, spans_path: Path) -> dict:
        """Each op of ``rounds`` fresh rounds once untraced, once traced."""
        from tracing import Tracer

        self.warm_up()
        tracer = Tracer()
        plain_ids, traced_ids = [], []
        op_names, setup_names = set(), set()
        for rnd in range(rounds):
            plain = self.round(rnd, "p")
            setup_name = f"setup{rnd}"
            with tracer.installed(setup_name):
                traced = self.round(rnd, "t")
            setup_names.add(setup_name)
            for j, (op, top) in enumerate(zip(plain, traced)):
                (code, stdout, error), k = self.clock.time(_run_op, self.cli, op)
                plain_ids.append(k)
                self.record(op, code, stdout, error)
                op_name = f"op{rnd}.{j}"
                with tracer.installed(op_name):
                    (code, tout, error), k = self.clock.time(_run_op, self.cli, top)
                traced_ids.append(k)
                op_names.add(op_name)
                self.record(top, code, tout, error, _digest(stdout))
            shutil.rmtree(self.workdir / f"p{rnd}")
            shutil.rmtree(self.workdir / f"t{rnd}")
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write(spans_path)
        self.info = {"samples": len(op_names), "rounds": rounds, "spans": str(spans_path)}
        metrics = tracer.layer_metrics(op_names, setup_names)
        plain_s = sum(self.clock.scaled(k) for k in plain_ids)
        traced_s = sum(self.clock.scaled(k) for k in traced_ids)
        metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
        return metrics


def measure(workload, seed, seconds, trace, trace_rounds=None):
    """Run one workload; returns (result line, info line) as dicts."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        bench = Bench(workload, seed, workdir)
        if trace:
            rounds = trace_rounds or bench.workloads.TRACE_ROUNDS[workload]
            spans = ROOT / ".bench_out" / f"trace-{workload}.jsonl"
            metrics = bench.traced(rounds, spans)
        else:
            metrics = bench.timed(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "shape": bench.workloads.SHAPES[workload],
        "environment": environment(),
        **bench.info,
        "failed_frac": len(bench.failures) / bench.attempted,
        "failures": bench.failures[:20],
        "digests": bench.digests,
    }
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, info = measure(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, ImportError, RuntimeError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
