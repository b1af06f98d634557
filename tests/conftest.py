"""Settings shared by every test module."""

from hypothesis import settings

# Property tests run on shared, noisy machines: a per-example deadline would
# fail a slow example rather than a wrong one, and the printed blob lets a
# failure be replayed exactly.
settings.register_profile("qlitho", deadline=None, print_blob=True)
settings.load_profile("qlitho")
