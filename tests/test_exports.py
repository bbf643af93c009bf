import pytest

from fransim import analysis, config, simulator


@pytest.mark.parametrize("module", [config, simulator, analysis], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
