"""The names the benchmark tracer reaches into must exist in the package.

`bench/tracer.py` wraps library functions by (module, attribute) name,
patches `Kernel.__call__` and reads `cache_info()` from the cached number
families. A rename or a dropped cache in `src/` breaks traced benchmark runs
without failing any other test, so this checks those names directly. The
tracer is loaded by path and left unchanged.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from convolvium.kernels import Kernel

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

pytestmark = pytest.mark.skipif(not TRACER.is_file(), reason="no bench/ in this checkout")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    targets = [target for layer in tracer.LAYERS.values() for target in layer]
    assert targets
    for mod_name, attr in targets:
        module = importlib.import_module(f"convolvium.{mod_name}")
        assert callable(getattr(module, attr, None)), f"convolvium.{mod_name}.{attr}"


def test_kernel_call_is_patchable():
    assert "__call__" in vars(Kernel)


def test_cached_numbers_report_cache_info(tracer):
    exact = importlib.import_module("convolvium.exact")
    assert tracer.CACHED_NUMBERS
    for attr in tracer.CACHED_NUMBERS:
        info = getattr(exact, attr).cache_info()
        assert info.hits >= 0 and info.misses >= 0
