"""Source checks: the library's runtime checks must survive python -O."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "feyngraph"


def test_no_assert_statements_in_library():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under -O: {found}"
