import pytest

from equilib import core


@pytest.fixture
def small_chunk(monkeypatch):
    """A chunk of 4,096 entries, a sixteenth of the real one, set before the
    probe is built: the block-size and memory rules scale with the chunk, so
    they show at a sixteenth of the sizes."""
    monkeypatch.setattr(core, "_CHUNK_ENTRIES", 4096)
