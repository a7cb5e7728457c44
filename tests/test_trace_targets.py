"""The benchmark tracer's targets exist in the program.

``perfbench/tracer.py`` wraps functions by name; a name it lists that the
program no longer has would crash only a traced benchmark run, so this
test reads its ``TARGETS`` and resolves each one.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for mod_name, attr, _metric in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method in the class's own namespace
            assert meth in vars(getattr(module, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (mod_name, attr)
