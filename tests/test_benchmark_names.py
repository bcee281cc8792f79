"""The names the benchmark's traced run wraps still exist in the package.

``perfbench/layers.py`` names permgrowth functions by string; a rename in
``src/`` would only show when ``perfbench/run.py --trace 1`` runs.  This
test reads that file and resolves every name."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    obj = importlib.import_module("permgrowth." + module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_benchmark_targets_counted_classes_and_required_names_resolve():
    layers = _layers()
    assert layers.TARGETS
    for module, path, _ in layers.TARGETS:
        assert callable(_resolve(module, path)), (module, path)
    for module, name in layers.COUNTED:
        cls = _resolve(module, name)
        assert isinstance(cls, type), (module, name)
        # the counting pass wraps the class's own __init__; an inherited
        # one (object.__init__ of a bytes subclass) rejects the arguments
        assert "__init__" in vars(cls), (module, name)
    targets = {layers.target_name(module, path) for module, path, _ in layers.TARGETS}
    for workload, names in layers.REQUIRED.items():
        assert set(names) <= targets, (workload, set(names) - targets)
