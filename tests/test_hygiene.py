"""Source checks: the library's runtime checks must survive python -O,
and no handler may swallow errors it does not name."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "feyngraph"


def _nodes(kind):
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, kind):
                yield f"{path.name}:{node.lineno}", node


def test_no_assert_statements_in_library():
    found = [where for where, _ in _nodes(ast.Assert)]
    assert not found, f"assert statements vanish under -O: {found}"


def test_no_catch_all_handlers_in_library():
    broad = {"Exception", "BaseException"}
    found = []
    for where, node in _nodes(ast.ExceptHandler):
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        if any(t is None or (isinstance(t, ast.Name) and t.id in broad)
               for t in types):
            found.append(where)
    assert not found, f"handlers that catch everything: {found}"


def test_no_silent_truncation_in_library():
    """An exhaustive checker must refuse a search it cannot finish, not
    cut it short: itertools.islice has no place in the library."""
    found = [where for where, node in _nodes(ast.Attribute)
             if node.attr == "islice"]
    found += [where for where, node in _nodes(ast.ImportFrom)
              if any(a.name == "islice" for a in node.names)]
    assert not found, f"silent truncation: {found}"
