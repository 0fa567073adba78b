import sys
import warnings
from pathlib import Path

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis imports its patch writer (libcst, black) while it reports a failing
# example, still inside the test's warning filters.  Under filterwarnings("error")
# a DeprecationWarning from that import aborted the whole session instead of
# failing the one test, so import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
