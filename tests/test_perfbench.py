"""The benchmark still finds every memmeter function it patches or clocks.

`perfbench/run.py --trace 1` replaces memmeter functions by name, and every
timed run splits its training steps at the functions `perfbench/rep.py`
lists in STEP_SITES, skipping any it cannot find. A rename or deletion in
`src/` must fail here, not only in a bench run or its numbers.
"""

import ast
import importlib.util
from pathlib import Path

from memmeter import measurer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
REP = PERFBENCH / "rep.py"


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


def test_perfbench_step_sites_all_exist():
    tree = ast.parse(REP.read_text(), str(REP))
    namespace = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "memmeter":
            exec(compile(ast.Module([node], type_ignores=[]), str(REP), "exec"), namespace)
    (sites,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["STEP_SITES"]]
    pairs = [elt for lst in ast.walk(sites) if isinstance(lst, ast.List)
             for elt in lst.elts if isinstance(elt, ast.Tuple)]
    assert pairs
    for owner, name in (pair.elts for pair in pairs):
        resolved = eval(compile(ast.Expression(owner), str(REP), "eval"), namespace)
        assert name.value in vars(resolved), f"STEP_SITES names {ast.unparse(owner)}.{name.value}, which is gone"
