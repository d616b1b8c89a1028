"""perfbench/tracer.py patches rpg names by module and attribute.

A library change that moves or renames one of them would only show up in a
``--trace 1`` benchmark run; entering the tracer here, without training,
makes it fail in the test suite instead.  The benchmark's files are read,
never edited.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name():
    tracer = load_tracer()
    names = [(owner, attr) for _, owner, attr, _ in tracer.TARGETS]
    names += [(owner, "eval_points") for owner in tracer.EVAL_POINTS_OWNERS]
    originals = [getattr(owner, attr) for owner, attr in names]
    active = tracer.Tracer()
    try:
        active.__enter__()
        patched = [getattr(owner, attr) for owner, attr in names]
    finally:
        active.__exit__(None, None, None)
    assert all(p is not o for p, o in zip(patched, originals))
    assert [getattr(owner, attr) for owner, attr in names] == originals
