"""README's library example runs as documented, so the package surface it
shows cannot drift away from the package."""

import os
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The Python block under README's '## Library use' heading."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_trains_and_saves(glyphs_dir, tmp_path, monkeypatch):
    # the example reads ./data; the session's glyph files stand in for it
    os.symlink(glyphs_dir, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert (tmp_path / "model.ibpnet").is_file()
    assert isinstance(scope["history"][-1].test_error, float)
