"""Every field of a dataclass with ``to_dict`` reaches its serializer.

A field a ``to_dict`` forgets is lost from whatever is written through
it.  For ``SimulationResult`` the export's byte pin and
``TestSerializerCoverage`` (tests/test_stats_summary.py) catch that at
run time; for other classes nothing did: with ``"profile"`` dropped
from ``CampaignSpec.to_dict``, a spec written by ``to_file`` reads
back without its profile, and tier 1 passed (ROADMAP item 7).  So this
one serializer rule stays, as a syntactic check over ``src/repro``: in
a ``@dataclass`` that defines ``to_dict``, each field must be read as
``self.<field>`` or named by a string in ``to_dict``, or be listed in
the class's ``SERIALIZE_EXCLUDE``.  A ``to_dict`` that calls
``asdict`` covers every field.
"""

import ast
from pathlib import Path
from typing import List, Set, Tuple

import pytest

import repro


def _names(node: ast.AST) -> str:
    """The last name of a ``Name`` / ``Attribute`` chain, else ''."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _targets(statement: ast.stmt) -> List[ast.expr]:
    if isinstance(statement, ast.Assign):
        return statement.targets
    return [statement.target] if isinstance(statement, ast.AnnAssign) else []


def dropped_fields(source: str) -> List[Tuple[int, str, str]]:
    """``(line, class, field)`` for every dataclass field *source*'s
    ``to_dict`` methods leave out."""
    dropped = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or "dataclass" not in (
            _names(decorator) for decorator in node.decorator_list
        ):
            continue
        to_dict = next(
            (
                statement for statement in node.body
                if isinstance(statement, ast.FunctionDef)
                and statement.name == "to_dict"
            ),
            None,
        )
        if to_dict is None:
            continue
        covered: Set[str] = set()
        for sub in ast.walk(to_dict):
            if isinstance(sub, ast.Attribute) and _names(sub.value) == "self":
                covered.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                covered.add(sub.value)
            elif isinstance(sub, ast.Call) and _names(sub) == "asdict":
                break
        else:
            for statement in node.body:
                if isinstance(statement, (ast.Assign, ast.AnnAssign)) and (
                    "SERIALIZE_EXCLUDE" in map(_names, _targets(statement))
                ):
                    covered.update(
                        sub.value for sub in ast.walk(statement)
                        if isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)
                    )
            dropped.extend(
                (to_dict.lineno, node.name, statement.target.id)
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and "ClassVar" not in ast.unparse(statement.annotation)
                and statement.target.id not in covered
            )
    return dropped


def test_every_serializer_covers_its_fields():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root)}:{line}: {name}.to_dict drops {field!r}"
        for path in sorted(root.rglob("*.py"))
        for line, name, field in dropped_fields(
            path.read_text(encoding="utf-8")
        )
    ]
    assert not found, (
        "serialize each field, or list it in SERIALIZE_EXCLUDE with why:\n"
        + "\n".join(found)
    )


SPEC = """
@dataclass
class Spec:
    name: str
    profile: Optional[str] = None
    kind: ClassVar[str] = "spec"
    {exclude}

    def to_dict(self):
        return {{"name": self.name{more}}}
"""


@pytest.mark.parametrize(
    "exclude, more, dropped",
    [
        # The planted bug tier 1 let through: "profile" left out.
        ("", "", [(9, "Spec", "profile")]),
        ("", ', "profile": self.profile', []),
        ('SERIALIZE_EXCLUDE = frozenset({"profile"})', "", []),
        ("", ", **dataclasses.asdict(self)", []),
    ],
    ids=["dropped", "serialized", "excluded", "asdict"],
)
def test_the_check_flags_a_dropped_field(exclude, more, dropped):
    source = SPEC.format(exclude=exclude, more=more)
    assert dropped_fields(source) == dropped
