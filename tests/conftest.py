"""Every test starts from an empty memo, as a fresh process does, so what a
test exercises does not depend on which tests ran before it.  The memo of
``families.resolve`` holds every memoized instance, and so every moment."""

import pytest

from kstab import families


@pytest.fixture(autouse=True)
def _empty_memo():
    families.resolve.cache_clear()
