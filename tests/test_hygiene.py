"""Source checks: the library's runtime checks must survive python -O,
no handler may swallow errors it does not name, and every search draws on
one budget and one union-find; element text comes from key_text, and the
process memos are the documented ones."""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "feyngraph"


def _scoped_nodes():
    """(where, names of the enclosing classes and functions, node) for
    every node of the library."""
    def walk(node, scope, where):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            yield f"{where}:{getattr(child, 'lineno', '?')}", inner, child
            yield from walk(child, inner, where)

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield from walk(tree, (), path.name)


def _nodes(kind):
    for where, _, node in _scoped_nodes():
        if isinstance(node, kind):
            yield where, node


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


def test_one_search_budget():
    """Every enumeration draws on FEYNGRAPH_MAX_SEARCH through one budget
    type: only SearchBudget raises BoundsTooLarge, and only it and the key
    of the corpus-pass memo read the cap."""
    def named(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or \
            (isinstance(node, ast.Attribute) and node.attr == name)

    found = []
    for where, scope, node in _scoped_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if named(exc, "BoundsTooLarge") and "SearchBudget" not in scope:
                found.append(f"{where} raises BoundsTooLarge")
        if isinstance(node, ast.Call) and named(node.func, "max_search_cap") \
                and not {"SearchBudget", "_memo_morphisms"} & set(scope):
            found.append(f"{where} reads the cap")
    assert not found, f"searches outside the one budget: {found}"


def test_process_memos_are_the_documented_ones():
    """The memos that live for the whole process are the four that the
    graphs module docstring lists: every module-level name bound to an
    empty dict, list or set, and every function under functools.lru_cache
    or functools.cache, is one of them.  A new process memo has to be
    added here and documented there."""
    def empty(value):
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return not (value.keys if isinstance(value, ast.Dict)
                        else value.elts)
        return (isinstance(value, ast.Call) and not value.args
                and not value.keywords and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set"))

    def caching(decorator):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = decorator.attr if isinstance(decorator, ast.Attribute) \
            else getattr(decorator, "id", None)
        return name in ("lru_cache", "cache")

    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and empty(node.value):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and empty(node.value):
                targets = [node.target]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(map(caching, node.decorator_list)):
                targets = [ast.Name(id=node.name)]
            else:
                continue
            found |= {f"{path.stem}.{n.id}" for t in targets
                      for n in ast.walk(t) if isinstance(n, ast.Name)}
    assert found == {"graphs._IDKEYS", "graphs._IDSTRS", "graphs._SHAPES",
                     "nerve._pass"}, sorted(found)


def test_one_union_find():
    """Every colimit and component search identifies ids through one
    union-find, graphs._UF: no other library function defines find or
    union."""
    found = [where for where, scope, node in _scoped_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in ("find", "union")
             and not (where.startswith("graphs.py:") and scope[:-1] == ("_UF",))]
    assert not found, f"union-find outside graphs._UF: {found}"


def test_one_half_order_per_vertex():
    """A vertex's half order is the tuple its graph keeps, g.halves_at(v),
    and it is the order of the element's positions: no library function
    is named half_order, moves an element between two orders of the same
    halves (_reordered) or takes a half_orders parameter, and no
    dataclass keeps a half_orders field beside the graph."""
    found = []
    for where, _, node in _scoped_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if node.name in ("half_order", "_reordered"):
                found.append(where)
            found += [f"{where} {node.name}(half_orders)" for a in params
                      if a.arg == "half_orders"]
    for where, node in _nodes(ast.ClassDef):
        found += [f"{where} {node.name}.half_orders" for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and stmt.target.id == "half_orders"]
    assert not found, f"copies of the graph's half order: {found}"


def test_element_text_is_written_by_key_text():
    """A species element's key is written as text in one place, a
    key_text method: no other library function calls repr on the result
    of a one-argument .key(x).  (A decoration's key() takes no argument.)"""
    found = [where for where, scope, node in _scoped_nodes()
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "repr"
             and len(node.args) == 1
             and isinstance(node.args[0], ast.Call)
             and isinstance(node.args[0].func, ast.Attribute)
             and node.args[0].func.attr == "key"
             and len(node.args[0].args) == 1
             and scope[-1:] != ("key_text",)]
    assert not found, f"element text outside key_text: {found}"


def test_only_the_sweeps_catch_ill_formed_output():
    """Every axiom and law checker runs its instances through one sweep,
    species._sweep, which counts each instance, reports one whose output
    is ill-formed and goes on.  So _ILL_FORMED is defined once, in
    species.py; only _sweep and _attempt, the pair filters' probe, catch
    it; and no other function of species.py or monads.py keeps a count of
    checked instances.  A new checker cannot grow a loop of its own that
    aborts, skips or counts in its own way."""
    def names(targets):
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}

    def is_ill_formed(t):
        return (isinstance(t, ast.Name) and t.id == "_ILL_FORMED") or \
            (isinstance(t, ast.Attribute) and t.attr == "_ILL_FORMED")

    defined, catchers, counters = [], [], []
    for where, scope, node in _scoped_nodes():
        module = where.split(":")[0]
        if isinstance(node, ast.Assign):
            assigned = names(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
            assigned = names([node.target])
        else:
            assigned = set()
        if "_ILL_FORMED" in assigned:
            defined.append(module)
        if "checked" in assigned and scope[-1:] != ("_sweep",) and \
                module in ("species.py", "monads.py"):
            counters.append(where)
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(map(is_ill_formed, types)):
                catchers.append((module, scope[-1] if scope else None))
    assert defined == ["species.py"], f"_ILL_FORMED defined in {defined}"
    assert sorted(catchers) == [("species.py", "_attempt"),
                                ("species.py", "_sweep")], \
        f"handlers of _ILL_FORMED: {catchers}"
    assert not counters, f"checked counted outside _sweep: {counters}"


def test_bench_hooks_resolve_and_fire():
    """Every hook of the benchmark's recorder names a function of the
    library, and the distributive-law, axiom-checker and nerve hooks
    record calls.  The recorder skips a hook that does not resolve, and misses
    calls made through a reference captured before it was installed:
    either reads 0."""
    script = textwrap.dedent("""
        import importlib
        import recorder
        from feyngraph import monads, species
        from feyngraph.graphs import corolla, stick, wheel
        from feyngraph.species import TerminalSpecies
        from helpers_species import MONO, tuple_algebra

        for name, mod, attr, kind, after in recorder.LAYERS:
            module = importlib.import_module("feyngraph." + mod)
            if isinstance(attr, tuple):
                found = attr[1] in vars(getattr(module, attr[0], object))
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                raise SystemExit(f"unresolved hook {name}: {mod}.{attr}")
        rec = recorder.Recorder()
        recorder.install(rec)
        K = TerminalSpecies(n_max=3)

        def fired(*names):
            for name in names:
                if not rec.calls.get(name):
                    raise SystemExit(f"hook {name} recorded no call")

        for law in ("dt", "lt", "ld"):
            monads.check_beck(law, K, max_arity=1, max_vertices=1,
                              max_valency=2)
        fired("monads.mu_T", "monads.law_DT", "monads.law_LT",
              "monads.telem_key", "monads.check_beck")
        monads.yang_baxter_sweep(K, max_arity=1, max_vertices=1,
                                 max_valency=2)
        fired("monads.yang_baxter_sweep")
        A = monads.FreeCircuitAlgebra(K, max_vertices=1, max_valency=2,
                                      max_factors=2)
        species.check_circuit_axioms(A, max_arity=2)
        species.check_modular_axioms(A, max_arity=2)
        fired("monads.FreeCircuitAlgebra.box",
              "monads.FreeCircuitAlgebra.zeta",
              "species.check_circuit_axioms", "species.check_modular_axioms")
        # the wheel's vertex is bivalent, so the nerve has deletions
        nerve = importlib.import_module("feyngraph.nerve")
        nerve.nerve(tuple_algebra(MONO, 2),
                    {"stick": stick(), "corolla2": corolla([0, 1]),
                     "wheel1": wheel(1)})
        fired("nerve.nerve", "nerve.make_kleisli",
              "nerve.kleisli_deletion_homs", "nerve.restrict_kleisli",
              "substitution.substitute", "monads.delete_vertices")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_every_exported_name_resolves_once():
    """Every name in feyngraph.__all__ and in each module's __all__ is an
    attribute of its module and is listed once, so removing a function
    cannot leave its export behind."""
    import importlib

    problems = []
    modules = ["feyngraph"] + [f"feyngraph.{p.stem}"
                               for p in sorted(SRC.glob("*.py"))
                               if p.stem != "__init__"]
    for modname in modules:
        mod = importlib.import_module(modname)
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        problems += [f"{modname}.{n} is listed twice"
                     for n in sorted({n for n in names
                                      if names.count(n) > 1})]
        problems += [f"{modname}.{n} does not resolve"
                     for n in names if not hasattr(mod, n)]
    assert not problems, problems
