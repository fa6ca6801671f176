"""Recorded totals do not depend on how the interpreter's ``sum()`` adds.

From Python 3.12, ``sum()`` of floats is compensated (Neumaier); up to
3.11 it adds left to right.  Every total that reaches a result folds
through :func:`repro.units.left_sum` instead, so a chaos trial, an energy
audit and a summed trace come out bit for bit the same under either
``sum()``.  Both are emulated here, so the check runs on any interpreter;
the seeds and nodes are ones whose results moved under the compensated
``sum()`` while the totals still used it.
"""

import builtins
import contextlib
import dataclasses
import functools
import math
import operator
import random

import pytest

from repro.campaigns import chaos_task
from repro.core import builder
from repro.core.energy_audit import audit_node

_builtin_sum = builtins.sum


def plain_sum(iterable, /, start=0):
    """``sum()`` up to Python 3.11: left to right."""
    return functools.reduce(operator.add, iterable, start)


def compensated_sum(iterable, /, start=0):
    """``sum()`` from Python 3.12: Neumaier-compensated over exact floats.

    Follows CPython's ``builtin_sum_impl``: an int start adds exact ints
    until the first other item, exact floats then accumulate with a
    running compensation, ints join the float total uncompensated, and
    the compensation is added once at the end when it is finite and
    nonzero.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is not float:
        return _builtin_sum(items, result)
    total, compensation = result, 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
            continue
        if type(item) is int:
            total += float(item)
            continue
        if compensation and math.isfinite(compensation):
            total += compensation
        return _builtin_sum(items, total + item)
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@contextlib.contextmanager
def summing_with(fn):
    builtins.sum = fn
    try:
        yield
    finally:
        builtins.sum = _builtin_sum


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return hexed(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def under_both_sums(run):
    with summing_with(plain_sum):
        plain = hexed(run())
    with summing_with(compensated_sum):
        compensated = hexed(run())
    return plain, compensated


def test_the_emulations_differ_where_compensation_matters():
    values = [1.0, 1e100, 1.0, -1e100]
    assert plain_sum(values) == 0.0
    assert compensated_sum(values) == 2.0
    rng = random.Random(3)
    for _ in range(200):
        items = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-8, 8)
                 for _ in range(rng.randrange(6))]
        assert plain_sum(items) == functools.reduce(operator.add, items, 0)


@pytest.mark.parametrize("seed", [1, 2, 15, 19, 20, 35, 36])
def test_chaos_trial_is_bit_identical_under_either_sum(seed):
    plain, compensated = under_both_sums(
        lambda: chaos_task((900.0, "mild"), seed=seed)
    )
    assert plain == compensated


@pytest.mark.parametrize("node_id", [2, 3, 5])
def test_audit_and_total_trace_are_bit_identical_under_either_sum(node_id):
    def run():
        node = builder.build_steady_tpms_node(node_id=node_id)
        node.run(60.0)
        total = node.recorder.total_trace()
        return (audit_node(node), total.state_dict(),
                node.recorder.total_minimum(), node.average_power())

    plain, compensated = under_both_sums(run)
    assert plain == compensated
