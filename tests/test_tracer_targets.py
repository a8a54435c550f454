"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` names its targets as (module, attribute) strings,
so deleting or renaming one of them in the package breaks only
``perfbench/run.py --trace 1``.  Here the tracer is read from its source
(nothing is written next to it), installed over the loaded package the way
a traced run installs it, and removed again.
"""

import importlib
import types
from pathlib import Path

import iqwalk  # noqa: F401  (install wraps the loaded iqwalk modules)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_every_target_resolves_and_is_wrapped():
    tracing = _load_tracing()
    originals = {(module, attr): _resolve(module, attr) for _, module, attr in tracing.TARGETS}
    assert all(callable(fn) for fn in originals.values())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, original in originals.items():
            assert _resolve(*key) is not original, key
    finally:
        tracer.uninstall()
    for key, original in originals.items():
        assert _resolve(*key) is original, key
