import sys

import pytest


@pytest.fixture
def int_str_limit():
    """Pin CPython's int-to-str digit limit at its default for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)
