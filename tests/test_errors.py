from __future__ import annotations

import pytest

from qhopper.errors import CAP_ENV_VAR, LIMITS, InfeasibleSizeError, check_size


def _message(size, limit, guard) -> str:
    with pytest.raises(InfeasibleSizeError) as err:
        check_size("brute force over {} subsets", size, limit, guard)
    return str(err.value)


def test_one_message_format_naming_guard_limit_and_setting():
    assert _message(5000, 4096, LIMITS.max_subsets) == (
        "brute force over 5000 subsets exceeds the max_subsets guard of 4096; "
        "set it with COEVENT_MAX_SUBSETS or max_subsets=, up to 2^27"
    )
    check_size("{}", 4096, 4096, LIMITS.max_subsets)


def test_sizes_past_two_to_the_64_are_given_by_bit_length():
    guard = LIMITS.max_vectors
    assert "over 18446744073709551615 subsets" in _message((1 << 64) - 1, 1, guard)
    assert "over 2^64 subsets" in _message(1 << 64, 1, guard)
    assert "over 2^5920..2^5921 subsets" in _message(3 << 5919, 1, guard)
    assert "guard of 2^99;" in _message(1 << 100, 1 << 99, guard)


def test_subset_limit_comes_from_setting_then_environment_then_default(monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    assert "guard of 1048576;" in _message(1 << 21, None, LIMITS.max_subsets)
    assert "guard of 134217728;" in _message(1 << 28, None, LIMITS.subset_ceiling)
    monkeypatch.setenv(CAP_ENV_VAR, "7")
    assert "guard of 7;" in _message(8, None, LIMITS.max_subsets)
    check_size("{}", 8, 8, LIMITS.max_subsets)
    # the ceiling holds whatever is asked for
    assert "guard of 134217728;" in _message(1 << 28, 1 << 40, LIMITS.max_subsets)
    monkeypatch.setenv(CAP_ENV_VAR, "many")
    with pytest.raises(ValueError, match=CAP_ENV_VAR):
        check_size("{}", 8, None, LIMITS.max_subsets)
