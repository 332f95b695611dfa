"""The ``geovos`` names that the benchmark's tracer wraps still exist.

``perfbench/tracer.py`` times a run by swapping module attributes such as
``geovos.sampler:frustum_overlap_ratio`` for wrappers; a name dropped from
``src`` would break only the benchmark. This test loads the tracer by path
(it imports only the standard library) and resolves every site it lists.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer in tracer.OP_LAYERS + tracer.SETUP_LAYERS:
        try:
            owner, attr = tracer._resolve(layer.site)
            ok = callable(getattr(owner, attr))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            missing.append(layer.site)
    assert not missing, f"traced sites with no callable: {missing}"
