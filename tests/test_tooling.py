"""The benchmark's tracer wraps library functions by the names modules bind them to."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_binding_site_resolves():
    # a library change that unbinds a wrapped name (a dropped import, a
    # renamed method) makes a traced benchmark run fail with AttributeError
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for site in spans.BOUNDARIES:
        module, _, attribute = site.partition(":")
        target = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(target, part), f"{site} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"{site} is not callable"
