"""The benchmark's per-layer wrappers (bench/tracing.py) replace fpaeq names
where the callers look them up.  ``Tracer.installed`` reads each original
from ``vars(owner)``, so every wrapped name must stay defined on its owner:
a module function, a name a module imports (``engine.marginal_mass``) or a
class attribute."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_owner():
    targets = _tracing().patch_targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)]
    assert targets and not missing
