"""Every test starts from empty memos, as a fresh process does, so what a
test exercises does not depend on which tests ran before it."""

import pytest

from kstab import criteria, families


@pytest.fixture(autouse=True)
def _empty_memos():
    families.resolve.cache_clear()
    criteria.instance_moments.cache_clear()
