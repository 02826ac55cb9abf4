import toaloc


def test_every_public_name_resolves():
    # a stale __all__ entry breaks `from toaloc import *`
    assert [name for name in toaloc.__all__ if not hasattr(toaloc, name)] == []
