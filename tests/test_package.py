"""Tests of the package's public surface."""

import qlitho


def test_every_exported_name_resolves_once():
    # Tools walk __all__ with getattr, so a stale entry breaks them all.
    assert len(set(qlitho.__all__)) == len(qlitho.__all__)
    missing = [name for name in qlitho.__all__ if not hasattr(qlitho, name)]
    assert missing == []
