"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_explore_cache(tmp_path_factory):
    """Point the persistent exploration cache (and the serve disk layer
    under it) at a session temporary directory, so no test, CLI command
    or pool worker reads or fills the user's own ``~/.cache``.  Tests
    that need a directory of their own still ``monkeypatch.setenv`` it.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_EXPLORE_CACHE_DIR",
            str(tmp_path_factory.mktemp("explore-cache")),
        )
        yield
