import listrank


def test_every_public_name_resolves():
    missing = [name for name in listrank.__all__ if not hasattr(listrank, name)]
    assert not missing
