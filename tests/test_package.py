import cpinterp


def test_every_exported_name_resolves():
    missing = [name for name in cpinterp.__all__ if not hasattr(cpinterp, name)]
    assert missing == []
    assert len(set(cpinterp.__all__)) == len(cpinterp.__all__)
