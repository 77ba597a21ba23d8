"""No decision in the simulated core follows a set's iteration order.

A set of strings iterates in ``hash(str)`` order, which Python salts per
process, so a stream, route or transmit order taken from one matches
the golden pins in some processes and not in others.  Planted as a
string-keyed set in the batch lanes' ``refresh_streams`` (the three
stream names unpacked from a set), tier 1 passed in the run that
measured it: about one salt in six gives the intended order (ROADMAP
item 7).  So this one determinism rule stays, as a syntactic check over
the packages whose order feeds the simulation: a loop or comprehension
over a set expression, over a name bound to one in the same scope, or
over ``list()`` / ``tuple()`` / ``enumerate()`` / ``reversed()`` /
``iter()`` of one; and ``set.pop()``.  ``sorted(...)`` is the way out.
"""

import ast
from pathlib import Path
from typing import List, Set, Tuple

import pytest

import repro

#: The packages whose iteration order feeds simulation decisions.
ORDER_SENSITIVE = ("simulator", "routing", "network", "topology", "traffic")

#: Calls that keep their argument's iteration order.
_ORDERED = ("list", "tuple", "enumerate", "reversed", "iter")


def set_order_hazards(source: str) -> List[Tuple[int, str]]:
    """``(line, what)`` for every place *source* lets a set's iteration
    order out."""
    hazards: List[Tuple[int, str]] = []

    def scan(body: List[ast.stmt]) -> None:
        names: Set[str] = set()  # bound to a set, in this scope

        def is_set(node: ast.AST) -> bool:
            return (
                isinstance(node, (ast.Set, ast.SetComp))
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
                or isinstance(node, ast.Name) and node.id in names
            )

        def check(node: ast.expr) -> None:
            if is_set(node):
                hazards.append((node.lineno, "iteration over a set"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDERED
                and node.args
                and is_set(node.args[0])
            ):
                hazards.append(
                    (node.lineno, f"iteration over {node.func.id}() of a set")
                )

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(node.body)
                return
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                node.value is not None
            ):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        if is_set(node.value):
                            names.add(target.id)
                        else:
                            names.discard(target.id)
            elif isinstance(node, ast.For):
                check(node.iter)
            elif isinstance(node, ast.comprehension):
                check(node.iter)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and not node.args
                and is_set(node.func.value)
            ):
                hazards.append((node.lineno, "set.pop()"))
            for child in ast.iter_child_nodes(node):
                visit(child)

        for statement in body:
            visit(statement)

    scan(ast.parse(source).body)
    return hazards


def test_the_simulated_core_follows_no_set_order():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root)}:{line}: {what}"
        for package in ORDER_SENSITIVE
        for path in sorted((root / package).rglob("*.py"))
        for line, what in set_order_hazards(path.read_text(encoding="utf-8"))
    ]
    assert not found, "wrap the set in sorted():\n" + "\n".join(found)


@pytest.mark.parametrize(
    "source, hazards",
    [
        # Both planted bugs: an int set in Engine._select's free filter,
        # and the string-keyed set tier 1 let through.
        ("for flat in set(candidates):\n    pass\n", 1),
        (
            "def refresh_streams(self):\n"
            "    names = {ARRIVALS, DESTINATIONS, ROUTING}\n"
            "    self.a, self.d, self.r = [stream(n) for n in names]\n",
            1,
        ),
        (
            "def f(s):\n    seen = set(s)\n"
            "    for x in list(seen):\n        pass\n    return seen.pop()\n",
            2,
        ),
        ("def f(s):\n    return [x for x in sorted(set(s))]\n", 0),
        ("names = {1}\ndef f(names):\n    return list(names)\n", 0),
    ],
    ids=["int-set", "string-set", "list-and-pop", "sorted", "other-scope"],
)
def test_the_check_flags_set_order(source, hazards):
    assert len(set_order_hazards(source)) == hazards
