"""The benchmark's tracer wraps library functions by the names modules bind them to."""

import importlib
import importlib.util
import re
import types
from pathlib import Path

import steklov

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
TRACED_IMPORT = re.compile(r"^from \.\w+ import (.+?)\s+# noqa: F401 -- unused; perfbench traces", re.MULTILINE)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_binding_site_resolves():
    # a library change that unbinds a wrapped name (a dropped import, a
    # renamed method) makes a traced benchmark run fail with AttributeError
    spans = load_spans()
    assert spans.BOUNDARIES
    for site in spans.BOUNDARIES:
        module, _, attribute = site.partition(":")
        target = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(target, part), f"{site} does not resolve"
            target = getattr(target, part)
        assert callable(target), f"{site} is not callable"


def test_imports_kept_for_the_tracer_are_still_traced():
    # an import kept only so the tracer can wrap it is dead once the
    # benchmark stops wrapping that binding site; this names it for deletion
    boundaries = set(load_spans().BOUNDARIES)
    kept = [f"steklov.{path.stem}:{name.strip()}"
            for path in sorted((ROOT / "src" / "steklov").glob("*.py"))
            for names in TRACED_IMPORT.findall(path.read_text()) for name in names.split(",")]
    assert kept
    assert [site for site in kept if site not in boundaries] == []


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from steklov import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(steklov.__all__)
    assert len(set(steklov.__all__)) == len(steklov.__all__)
    assert "__version__" not in namespace
    for name, value in namespace.items():
        assert not isinstance(value, types.ModuleType), f"{name} is a module"
        assert value is getattr(steklov, name)
