"""The benchmark tracer's boundaries still name functions of the library.

A boundary that no longer resolves is reported by the traced run as an
absent layer and silently measures nothing, so a rename or deletion in
``src/`` must fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.BOUNDARIES))
def test_every_place_resolves(layer):
    for module, attr in tracer.BOUNDARIES[layer]:
        assert tracer._resolve(module, attr) is not None, f"{module}.{attr}"
