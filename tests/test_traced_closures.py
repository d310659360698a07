"""No traced entry point is captured where the benchmark tracer cannot
replace it.

perfbench/tracing.py rebinds module attributes and class methods.  A
traced function that the registry holds in a closure cell, a
functools.partial or a default argument keeps pointing at the original,
so a traced run would read 0 calls for that layer and still pass.  This
test resolves every traced entry point the way test_entry_points does
and walks what each claim's run and replay can reach.
"""

import functools
import importlib
import types

import pytest

from heiscert import restriction, suites
from test_entry_points import _entry_points


def _traced_objects() -> dict[int, str]:
    traced = {}
    for _layer, module_name, attr in _entry_points():
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        target = (vars(getattr(module, owner_name))[method] if owner_name
                  else getattr(module, attr))
        traced[id(target)] = f"{module_name}.{attr}"
    return traced


def _captured(root) -> list:
    """Every object reachable from root through closure cells, default
    arguments, partial members and bound methods, root included."""
    seen = {}
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
            todo.extend(obj.__defaults__ or ())
            todo.extend((obj.__kwdefaults__ or {}).values())
        elif isinstance(obj, functools.partial):
            todo.append(obj.func)
            todo.extend(obj.args)
            todo.extend(obj.keywords.values())
        elif isinstance(obj, types.MethodType):
            todo.append(obj.__func__)
        elif isinstance(obj, (tuple, list, frozenset, set)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
    return list(seen.values())


def _traced_captures(claim, traced: dict[int, str]) -> list[str]:
    return sorted({traced[id(obj)]
                   for entry in (claim.run, claim.replay)
                   for obj in _captured(entry) if id(obj) in traced})


def test_no_claim_captures_a_traced_entry_point():
    traced = _traced_objects()
    found = {claim.id: names for claim in suites.CLAIMS
             if (names := _traced_captures(claim, traced))}
    assert found == {}


@pytest.mark.parametrize("check", [
    restriction.restriction_certificate,
    functools.partial(lambda _inputs, certify: certify(),
                      certify=restriction.restriction_certificate),
], ids=["straight", "partial"])
def test_a_captured_entry_point_is_found(check):
    # A registry entry that hands a traced function to _claim.
    claim = suites._claim("restrict.example", "statement", check)
    assert _traced_captures(claim, _traced_objects()) == [
        "heiscert.restriction.restriction_certificate"]
