"""The package's public surface."""

import implicature


def test_every_exported_name_resolves():
    assert [name for name in implicature.__all__ if not hasattr(implicature, name)] == []
