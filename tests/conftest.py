import compileall
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session", autouse=True)
def compiled_package():
    """Byte-compile ``tatek`` once, before any test starts a ``python -m tatek``
    child.  With PYTHONDONTWRITEBYTECODE set, a child never writes the
    bytecode it compiles, so each one would compile every module from source
    again (about 40 ms per child); it still reads bytecode that exists."""
    compileall.compile_dir(SRC / "tatek", quiet=1)
