"""The plant list still fits the tree.

``python -m tests.plants`` patches each plant's anchor, so a refactor
that moves or rewrites an anchor strands its plant: fail here, in
under a second, rather than leave a ledger row nobody can reproduce.
"""

import ast

import pytest

from tests.plants import PLANTS, ROOT


def test_names_are_unique_and_one_plant_is_the_control():
    names = [plant.name for plant in PLANTS]
    assert len(set(names)) == len(names) >= 30
    assert [plant.kind for plant in PLANTS].count("control") == 1


@pytest.mark.parametrize("plant", PLANTS, ids=lambda plant: plant.name)
def test_anchor_occurs_once_and_the_patch_parses(plant):
    text = (ROOT / plant.file).read_text(encoding="utf-8")
    assert text.count(plant.anchor) == 1
    patched = plant.apply(text)
    assert patched != text
    ast.parse(patched, filename=plant.file)
