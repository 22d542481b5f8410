from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qhopper
from qhopper.coevents import enumerate_primitive_bruteforce
from qhopper.errors import LIMITS, InfeasibleSizeError, check_size
from qhopper.histories import enumerate_histories
from qhopper.measure import count_precluded_bruteforce
from qhopper.model import LatticeSpec, initial_state


def _message(size, limit, guard) -> str:
    with pytest.raises(InfeasibleSizeError) as err:
        check_size("brute force over {} subsets", size, limit, guard)
    return str(err.value)


def test_one_message_format_naming_guard_limit_and_setting():
    assert _message(5000, 4096, LIMITS.max_subsets) == (
        "brute force over 5000 subsets exceeds the max_subsets guard of 4096; "
        "set it with max_subsets=, up to 2^27"
    )
    check_size("{}", 4096, 4096, LIMITS.max_subsets)


def test_sizes_past_two_to_the_64_are_given_by_bit_length():
    guard = LIMITS.max_vectors
    assert "over 18446744073709551615 subsets" in _message((1 << 64) - 1, 1, guard)
    assert "over 2^64 subsets" in _message(1 << 64, 1, guard)
    assert "over 2^5920..2^5921 subsets" in _message(3 << 5919, 1, guard)
    assert "guard of 2^99;" in _message(1 << 100, 1 << 99, guard)


def test_subset_limit_comes_from_setting_else_default_never_past_the_ceiling(spec3, plus_space):
    guard = LIMITS.max_subsets
    assert "guard of 1048576;" in _message(1 << 21, guard.default, guard)
    assert "guard of 134217728;" in _message(1 << 28, guard.ceiling, guard)
    assert "guard of 7;" in _message(8, 7, guard)
    check_size("{}", 8, 8, guard)
    # the ceiling holds whatever is asked for
    assert "guard of 134217728;" in _message(1 << 28, 1 << 40, guard)
    # each brute force's default: 2^20 for the primitive one, 2^27 for the count
    with pytest.raises(InfeasibleSizeError, match="over 134217728 subsets .* guard of 1048576;"):
        enumerate_primitive_bruteforce(plus_space)
    everywhere = enumerate_histories(spec3, initial_state(spec3, "plus"), None)
    with pytest.raises(InfeasibleSizeError, match="guard of 134217728;"):
        count_precluded_bruteforce(everywhere)


def test_brute_forces_ignore_the_environment(monkeypatch, plus_space):
    monkeypatch.setenv("COEVENT_MAX_SUBSETS", "7")
    assert count_precluded_bruteforce(plus_space) == 2017807
    spec = LatticeSpec(2, 4)
    small = enumerate_histories(spec, initial_state(spec, "plus"), 0)
    assert small.size == 16
    assert enumerate_primitive_bruteforce(small) == enumerate_primitive_bruteforce(
        small, max_subsets=1 << 16
    )


_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(node: ast.AST) -> bool:
    """`os.environ`, `os.getenv` and the like, or `from os import ...` of them."""
    if isinstance(node, ast.Attribute):
        return node.attr in _ENV_READERS
    return isinstance(node, ast.alias) and node.name in _ENV_READERS


def test_no_module_reads_the_environment():
    package = Path(qhopper.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _reads_environment(node)
    ]
    assert readers == []
