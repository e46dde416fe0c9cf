import warnings

import pytest


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Make a test's report with libcst's import warning ignored.

    For a failing property, hypothesis imports libcst while it makes the
    report, to suggest a patch.  Some libcst versions then warn that
    ``mypy_extensions.TypedDict`` is deprecated; under
    ``-W error::DeprecationWarning`` that warning stopped the test run
    with an INTERNALERROR instead of reporting the failure.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated",
            DeprecationWarning)
        return (yield)
