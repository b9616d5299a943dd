"""The names the benchmark reaches into taumt by must keep resolving.

perfbench/tracer.py wraps the functions listed in its TARGETS, and the
worker reads action_matrix's cache statistics on every run; a refactor
that drops one of them fails every benchmark run while the rest of this
suite still passes.
"""

import importlib
import importlib.util
from pathlib import Path

import taumt.mansym

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, path, *_ in _load_tracer().TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path} is not callable"


def test_action_matrix_reports_cache_statistics():
    info = taumt.mansym.action_matrix.cache_info()
    assert info.currsize >= 0 and info.hits >= 0 and info.misses >= 0
