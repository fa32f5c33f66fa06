"""The package namespace."""

import kstab


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from kstab import *", namespace)
    assert sorted(name for name in kstab.__all__ if name not in namespace) == []
    assert len(set(kstab.__all__)) == len(kstab.__all__)
