"""The package's public names."""

import types

import rffcap


def test_every_listed_name_resolves():
    assert len(set(rffcap.__all__)) == len(rffcap.__all__)
    for name in rffcap.__all__:
        assert getattr(rffcap, name) is not None, name


def test_star_import_binds_no_module():
    namespace = {}
    exec("from rffcap import *", namespace)
    bound = {k: v for k, v in namespace.items() if k != "__builtins__"}
    assert sorted(bound) == sorted(rffcap.__all__)
    assert not [k for k, v in bound.items() if isinstance(v, types.ModuleType)]
