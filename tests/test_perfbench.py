"""The benchmark's tracer still finds every memmeter function it patches.

`perfbench/run.py --trace 1` replaces memmeter functions by name; a rename
or deletion in `src/` must fail here, not only in a traced bench run.
"""

import importlib.util
from pathlib import Path

from memmeter import measurer

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_perfbench_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert hasattr(measurer.run_episode, "__wrapped__")
    finally:
        tracer.restore()
    assert not hasattr(measurer.run_episode, "__wrapped__")
