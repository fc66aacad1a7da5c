"""Suite-wide fixtures."""

import pytest

from repro.experiments.parallel import CACHE_DIR_ENV


@pytest.fixture(autouse=True)
def isolated_result_cache(tmp_path, monkeypatch):
    """Point the default result cache at a per-test directory.

    Commands without ``--cache-dir`` (``profile``, the sweeps) would
    otherwise read and write the developer's ``~/.cache/repro``: a
    stale entry there could serve a test, and every run would leave
    entries behind.
    """
    root = tmp_path / "repro-cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(root))
    return root
