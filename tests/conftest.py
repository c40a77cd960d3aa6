from __future__ import annotations

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache(tmp_path_factory):
    """Every test session gets its own block cache directory.

    Session scope sets it up before any module-scoped fixture builds.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CYCLEFRAME_CACHE", str(tmp_path_factory.getbasetemp() / "block-cache"))
        yield
