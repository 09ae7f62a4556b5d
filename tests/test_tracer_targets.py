"""Every function and hasher method the benchmark's span recorder should wrap
is wrapped.

``perfbench/tracer.py`` skips a function it cannot find, and wraps a hasher
method only on a class that defines it itself, so a renamed function or a
method moved to the base class makes its layer read 0 without an error. This
test installs the recorder and reads what it patched; it changes nothing under
``perfbench/``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rtcodec

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_targets(tracer_module) -> tuple[set, set]:
    """(module, function) pairs and (class, method) pairs the recorder wrapped."""
    for info in pkgutil.iter_modules(rtcodec.__path__):
        importlib.import_module(f"rtcodec.{info.name}")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
    finally:
        tracer.uninstall()
    functions = {(owner.__name__.removeprefix("rtcodec."), key) for owner, key, _ in patched if not isinstance(owner, type)}
    methods = {(owner, key) for owner, key, _ in patched if isinstance(owner, type)}
    return functions, methods


def test_every_wrapped_function_is_patched():
    tracer_module = load_tracer()
    functions, _ = patched_targets(tracer_module)
    targets = {t for targets in tracer_module.FUNCTION_LAYERS.values() for t in targets} | set(tracer_module.RESULT_HOOKS)
    missing = sorted(t for t in targets if t not in functions)
    assert not missing, f"the span recorder wraps names rtcodec no longer has: {missing}"


def test_the_benchmark_hashers_methods_are_patched():
    """Both benchmark workloads hash with the default of CodeParams.deletion
    and CodeParams.edit (the CLI's ``--hash`` has the same default); its
    ``hash`` and ``recover`` calls must each land in a layer."""
    tracer_module = load_tracer()
    _, methods = patched_targets(tracer_module)
    # the rtcodec loaded now, which the recorder patched: the benchmark drops and
    # re-imports the package, so one imported when this file was collected may be stale
    CodeParams = importlib.import_module("rtcodec.params").CodeParams
    hashers = {type(CodeParams.deletion(4096, 4, 2).hasher()), type(CodeParams.edit(1024, 4, 2).hasher())}
    missing = sorted(f"{cls.__name__}.{m}" for cls in hashers for m in tracer_module.METHOD_LAYERS if (cls, m) not in methods)
    assert not missing, f"the span recorder does not reach: {missing}"
