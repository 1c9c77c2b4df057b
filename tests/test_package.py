import types

import hmsim


def test_all_names_resolve_and_none_is_a_module():
    assert hmsim.__all__
    for name in hmsim.__all__:
        assert not isinstance(getattr(hmsim, name), types.ModuleType), name
