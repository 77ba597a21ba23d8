"""Every script in ``examples/`` imports, and README lists exactly them.

Each example runs its work under ``if __name__ == "__main__":``, so
importing one checks every public name it uses in about a second.  All
are imported in one subprocess: ``custom_algorithm.py`` registers an
algorithm, and that must not leak into this test process's registry.
"""

import os
import re
import subprocess
import sys

import repro

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "examples")

IMPORT_ALL = """
import importlib.util, sys
for path in sys.argv[1:]:
    name = "example_" + path.rsplit("/", 1)[-1][:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""


def example_files():
    return sorted(name for name in os.listdir(EXAMPLES)
                  if name.endswith(".py"))


def test_every_example_imports():
    source = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=source)
    paths = [os.path.join(EXAMPLES, name) for name in example_files()]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL, *paths], env=env, timeout=120,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_readme_lists_exactly_the_examples():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("Runnable examples live in `examples/`:", 1)[1]
    table = section.split("\n\n", 2)[1]  # the paragraph after the intro
    listed = re.findall(r"^\| `([\w.]+\.py)` \|", table, re.MULTILINE)
    assert sorted(listed) == example_files()
