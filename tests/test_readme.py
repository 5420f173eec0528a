"""The README's statements that code can check."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_names_exactly_the_package_root_exports():
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"The package root exports (.*?)\.\s", readme, re.S)
    assert sentence, "README has no 'The package root exports ...' sentence"
    documented = re.findall(r"`(\w+)`", sentence.group(1))
    tree = ast.parse((ROOT / "src" / "spikesim" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(documented) == sorted(imported)


def test_readme_lists_exactly_the_artifact_fields():
    # every kind's header ints, then its payload fields with their dtypes,
    # in the order of datasets._KINDS
    from spikesim.datasets import _KINDS

    readme = " ".join((ROOT / "README.md").read_text().split())
    paragraph = re.search(r"One table per kind lists (.*?)\. `save_model`", readme)
    assert paragraph, "README has no 'One table per kind lists ...' sentence"
    documented = {kind: (ints.split(", "), fields.split(", ")) for kind, ints, fields
                  in re.findall(r"`(\w+)` has `([^`]*)` and `([^`]*)`", paragraph.group(1))}
    assert documented == {kind: (list(ints), [f"{name} {dtype}" for name, dtype in fields.items()])
                          for kind, (_, ints, fields) in _KINDS.items()}
