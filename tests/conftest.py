import pytest

from ibpnet.datasets import ensure_builtin_digits, ensure_builtin_glyphs, load_split_pair


@pytest.fixture(scope="session")
def glyphs_dir(tmp_path_factory) -> str:
    """Data directory holding the built-in glyph IDX files (under glyphs/),
    created once."""
    root = str(tmp_path_factory.mktemp("glyphs-data"))
    ensure_builtin_glyphs(root)
    return root


@pytest.fixture(scope="session")
def glyphs_pair(glyphs_dir):
    """(train, test) Datasets of the built-in glyphs."""
    return load_split_pair(glyphs_dir, "glyphs")


@pytest.fixture(scope="session")
def digits_dir(tmp_path_factory) -> str:
    """Directory holding the built-in digit IDX files, created once. The
    digit images come from scikit-learn."""
    pytest.importorskip("sklearn")
    root = str(tmp_path_factory.mktemp("digits-data"))
    ensure_builtin_digits(root)
    return root


@pytest.fixture(scope="session")
def digits_pair(digits_dir):
    """(train, test) Datasets of the built-in digits."""
    return load_split_pair(digits_dir, "digits")
