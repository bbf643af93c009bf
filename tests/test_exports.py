import os
import subprocess
import sys

import pytest

import fransim
from fransim import analysis, config, simulator


@pytest.mark.parametrize("module", [config, simulator, analysis], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_runtime_imports_no_scipy():
    code = ("import sys, fransim, fransim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src_dir = os.path.dirname(os.path.dirname(fransim.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
