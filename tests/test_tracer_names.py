"""The traced benchmark runs wrap latdel functions by name: each name in
`perfbench/tracer.py`'s SPANNED and COUNTED must still exist in its module,
or a rename would break those runs."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    names = [
        (layer, name)
        for table in (tracer.SPANNED, tracer.COUNTED)
        for layer, functions in table.items()
        for name in functions
    ]
    assert names
    missing = [
        "%s.%s" % (layer, name)
        for layer, name in names
        if not callable(getattr(importlib.import_module("latdel." + layer), name, None))
    ]
    assert missing == []
