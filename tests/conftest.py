import pytest


@pytest.fixture(autouse=True)
def basis_cache_in_tmp_path(tmp_path, monkeypatch):
    """Every command's basis cache lives in the test's own directory, so no
    test reads or writes the user's cache, and each starts cold."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
