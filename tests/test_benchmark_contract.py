"""The benchmark harness in ``perfbench/`` still binds to the program.

``perfbench/layers.py`` patches classes and functions by dotted name
and ``perfbench/workloads.py`` imports names from ``repro``.  A refactor
that renames or removes one of them fails here, in the tier-1 suite,
instead of only when the benchmark runs.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
HARNESS_MODULES = ("hostclock", "layers", "layertimer", "workloads")


@pytest.fixture
def perfbench_on_path():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in HARNESS_MODULES:
            sys.modules.pop(name, None)


def test_workloads_import(perfbench_on_path):
    import workloads

    assert set(workloads.WORKLOADS) == {
        "serve-cold-plan", "fleet-plan", "scenario-diurnal",
    }


def test_layers_install_and_restore(perfbench_on_path):
    import layers
    from layertimer import LayerTimer, is_restored

    patches = layers.install(LayerTimer(), [])
    restored = patches.restore()
    assert restored
    assert is_restored(restored)
