"""Committed output digests: the outputs of fixed benchmark ops, byte for byte.

Each case builds one round of a workload of ``bench/workloads.py`` (the
benchmark's input generator, imported unchanged) for a fixed (workload,
seed, round) in a temporary directory and runs every op of the round
through ``fpaeq.cli.main``.  An op's digest hashes its exit code, its stdout
and every file it wrote; the round's inputs, which the ``from-sat``,
``encode`` and ``serialize`` writers produce, get one digest of their own.
Some ops print the same output whatever the round drew: a ``sat-verify``
verify gives one report for every satisfying (or falsifying) assignment,
and the ``search`` ops find the same profile on every member of their
instance families.  So each of them is followed, in this test only, by an
op whose output shows the draw: ``extract`` of the encoded assignment, or
``marginal --bidder 0`` of the searched instance.

After a change that alters an output on purpose, regenerate the golden file
with

    PYTHONPATH=src python tests/test_output_digests.py

and say which ops changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from fpaeq.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "output_digests.json"
CASES = [
    ("sat-verify", 5, 0),
    ("sat-verify", 5, 1),
    ("densify-iid", 5, 0),
    ("densify-iid", 5, 1),
    ("densify-sapv", 5, 0),
    ("densify-sapv", 5, 1),
    ("search", 5, 0),
    ("search", 5, 1),
]


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _call(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _written(before: dict, after: dict, d: Path) -> list:
    """The name and contents of every file new or changed since ``before``,
    with the directory's path shown as ``.``."""
    here = str(d).encode()
    changed = [(name, data) for name, data in sorted(after.items()) if before.get(name) != data]
    return [x for name, data in changed for x in (name, data.replace(here, b"."))]


def _draw_shown(workload: str, argv: list) -> list:
    """The (kind, argv) of the op that follows an op of ``workload``, if any."""
    arg = dict(zip(argv, argv[1:]))
    if workload == "sat-verify":
        prefix = arg["--instance"].removesuffix(".instance.json")
        argv = ["extract", "--map", f"{prefix}.map.json", "--profile", arg["--profile"]]
        return [("extract", argv)]
    if workload == "search":
        return [("marginal", ["marginal", "--instance", arg["--instance"], "--bidder", "0"])]
    return []


def round_digests(workloads, workload: str, seed: int, rnd: int, tmp: Path) -> dict:
    """{"inputs": digest, "<k> <op kind>": digest, ...} for one round."""
    d = tmp / f"{workload}-{seed}-{rnd}"
    ops = workloads.make_round(workload, seed, rnd, d, _call)
    seen = _files(d)
    out = {"inputs": _digest(*_written({}, seen, d))}
    for k, op in enumerate(ops):
        steps = [(op.kind, op.argv), *_draw_shown(workload, op.argv)]
        for j, (kind, argv) in enumerate(steps):
            code, stdout = _call(argv)
            now = _files(d)
            written = _written(seen, now, d)
            out[f"{k}.{j} {kind}"] = _digest(code, stdout.replace(str(d), "."), *written)
            seen = now
    return out


def all_digests(tmp: Path) -> dict:
    workloads = _workloads()
    return {
        f"{w}:{seed}:{rnd}": round_digests(workloads, w, seed, rnd, tmp)
        for w, seed, rnd in CASES
    }


def test_outputs_match_the_golden_digests(tmp_path):
    got = all_digests(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert got == expected


def test_golden_rounds_differ():
    """The rounds of one workload differ in some op's digest, not only in
    their inputs, so a drawn input that stops reaching the output shows."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for w in {w for w, _, _ in CASES}:
        rounds = [golden[f"{w}:{s}:{r}"] for ww, s, r in CASES if ww == w]
        ops = {tuple(v for k, v in sorted(r.items()) if k != "inputs") for r in rounds}
        assert len(ops) == len(rounds), w


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = all_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
