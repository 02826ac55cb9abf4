"""Property tests of the CLI boundary: whatever a ``verify-theorems --config``
document holds, the command exits 0, 1 or 2, and a rejected document gives
exactly one ``error:`` line and no report, never a traceback."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from toaloc.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main  # noqa: E402


# quotes, a backslash, a newline, non-ASCII and a lone surrogate among plain
# characters (an explicit alphabet spares building a Unicode character map)
TEXT = 'a0 -."\\\n\u00e9\u2603\ud800'


def json_values(numbers):
    """Any JSON value whose numbers come from ``numbers``: null, bools,
    numbers, strings, and lists of them."""
    scalars = st.none() | st.booleans() | numbers | st.text(TEXT, max_size=4)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=4)


NUMBERS = st.integers() | st.floats()
# a whole-number count above 3 is replaced by a small one, so that every
# document runs in milliseconds; fractional and non-finite floats stay
COUNTS = st.integers(max_value=3) | st.floats().map(
    lambda x: x % 4 if x.is_integer() and x > 3 else x
)
# "instances" is always given: the default count is 1000
DOCUMENTS = st.fixed_dictionaries(
    {"instances": json_values(COUNTS)},
    optional={"seed": json_values(NUMBERS), "equal_delays": json_values(NUMBERS)},
) | json_values(NUMBERS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(DOCUMENTS)
def test_verify_theorems_config_exits_cleanly(document):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("TOA_SEED", None)
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(document, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify-theorems", "--config", path])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NOT_CONVERGED)
    if code == EXIT_CONFIG:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["instances"] in (1, 2, 3)
