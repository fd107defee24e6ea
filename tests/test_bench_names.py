"""The benchmark's per-layer metrics come from wrappers that
``perfbench/layers.py`` installs on named module attributes; a renamed or
removed attribute is only counted as missing there, and its metrics read
zero.  This keeps every wrapped name present in ``genconn``."""

import importlib.util
import sys
from importlib import import_module
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    wrapped = _load_layers().WRAPPED
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for module, attr, _span in wrapped
        if not callable(getattr(import_module(f"genconn.{module}"), attr, None))
    ]
    assert missing == []
