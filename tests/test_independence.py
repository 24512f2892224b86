"""The routes that check each other must not share code: path enumeration
uses only the model and its weights, the contour-quadrature engine uses
nothing from the package, and measure nothing from paths.  Strict tuples
come from one enumerator in core: no other module lists them with
itertools.combinations.  General-state rows run through one loop in symfunc:
one function applies a row and one function chains rows.  A path collection
is its chain of cross-sections: each row's top cross-sections are listed at
one call site in paths, behind its per-cross-section memo, and one rule
there, row_vertices, turns two cross-sections into a vertex row.  The
oracle of the lower-row sampler is the tests' census of paths' F-collections
and their weights: measure neither enumerates nor weighs collections.  A
parameter with a default is a setting callers differ on, listed with its
reason.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sixvertexlab"
ALLOWED = {"paths": {"core", "weights"}, "quadrature": set(),
           "asymptotics": {"core", "quadrature", "symfunc"},
           "measure": {"asymptotics", "boundary", "core", "quadrature",
                       "symfunc", "weights"}}


def package_imports(module: str) -> set[str]:
    """The package modules that module.py imports, at the top or lazily."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            full = ".".join(filter(None, ("sixvertexlab" if node.level else "",
                                          node.module)))
            names = ([f"{full}.{alias.name}" for alias in node.names]
                     if full == "sixvertexlab" else [full])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        out.update(name.split(".")[-1 if name == "sixvertexlab" else 1]
                   for name in names if name.split(".")[0] == "sixvertexlab")
    return out


def test_independent_modules_import_only_what_they_may():
    for module, allowed in ALLOWED.items():
        extra = package_imports(module) - allowed
        assert not extra, f"{module}.py imports {sorted(extra)}"


def test_only_core_enumerates_combinations():
    users = set()
    for path in SRC.glob("*.py"):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.alias) and node.name == "combinations"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "combinations"):
                users.add(path.stem)
    assert not users, f"{sorted(users)} use itertools.combinations"


def _callers(tree: ast.AST, name: str) -> set[str]:
    """The innermost functions that call name (bare or as an attribute) in
    tree."""
    out = set()

    def visit(node: ast.AST, func: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        called = getattr(node, "func", None)
        if isinstance(node, ast.Call) and name in (
                getattr(called, "id", None), getattr(called, "attr", None)):
            out.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return out


def test_one_general_state_row_loop():
    row_helpers = ("_row_successors", "_apply_row")
    for path in SRC.glob("*.py"):
        if path.name == "symfunc.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            assert name not in row_helpers, f"{path.name} uses {name}"
    tree = ast.parse((SRC / "symfunc.py").read_text())
    for name in row_helpers:
        callers = _callers(tree, name)
        assert len(callers) <= 1, f"{sorted(callers)} all call {name}"


def test_one_cauchy_sum():
    # one function builds and multiplies the Cauchy tables: in symfunc,
    # transfer runs only under F_eval, Gc_eval and the one Cauchy sum
    tree = ast.parse((SRC / "symfunc.py").read_text())
    callers = _callers(tree, "transfer")
    assert callers == {"F_eval", "Gc_eval", "_cauchy_sum"}, sorted(callers)


def test_one_row_configuration_call():
    # _enumerate_chains builds each cross-section's row configurations once;
    # a second call site would be a route around that memo
    calls = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            called = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "_row_configurations" in (
                    getattr(called, "id", None), getattr(called, "attr", None)):
                calls.append((path.name, node.lineno))
    assert len(calls) == 1 and calls[0][0] == "paths.py", calls


def test_one_vertex_row_rule():
    # row_vertices alone turns two cross-sections into vertex types: it is
    # defined in paths only, and measure neither binds a vertex edge of its
    # own nor derives vertex rows
    defs = [path.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
            and node.name == "row_vertices"]
    assert defs == ["paths.py"], defs
    tree = ast.parse((SRC / "measure.py").read_text())
    edges = {node.id if isinstance(node, ast.Name) else node.arg
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
             or isinstance(node, ast.arg)} & {"i1", "j1", "i2", "j2"}
    assert not edges, f"measure.py computes vertex edges {sorted(edges)}"
    assert not _callers(tree, "row_vertices")


def test_gibbs_oracle_stays_apart_from_the_sampler():
    # the census the sampler is checked against enumerates and weighs
    # paths' collections; the sampler's module does neither
    tree = ast.parse((SRC / "measure.py").read_text())
    for name in ("enumerate_F_collections", "collection_weight"):
        callers = _callers(tree, name)
        assert not callers, f"measure.py: {sorted(callers)} call {name}"


# every parameter with a default, and why one value does not serve all its
# callers; a default that every caller leaves alone or sets alike belongs in
# the function body
SETTABLE = {
    ("boundary", "f_contour", "radius"):
        "two values in use: checks.f_radius_independence passes two radii",
    ("boundary", "f_contour", "tol"):
        "a perfbench caller: it calls f_contour with and without tol",
    ("checks", "route_agreement", "threads"):
        "the user's config: the CLI passes its thread count",
    ("cli", "main", "argv"):
        "two values in use: sys.argv for the console script, lists in tests",
    ("cli", "add", "note"): "two values in use: empty and the CLI's notes",
    ("cli", "add_flag", "note"):
        "two values in use: empty and the CLI's notes",
    ("core", "__array__", "dtype"): "numpy's __array__ protocol passes it",
    ("core", "__array__", "copy"): "numpy's __array__ protocol passes it",
    ("gue", "compare_corners_limit", "pmf_tol"):
        "the user's config: the CLI passes its pmf_tol",
    ("measure", "top_row_pmf", "tol"):
        "two values in use: the default and the user's pmf_tol",
    ("measure", "top_row_pmf", "route"):
        "two values in use: the contour route and the direct cross-check",
    ("paths", "collection_weight", "conjugated"):
        "a test reference: tests weigh G^c collections with conjugated=True",
    ("quadrature", "adaptive", "atol"):
        "two values in use: 0 and asymptotics.IC_ATOL",
}


def test_settable_parameters_are_listed():
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            pos = args.posonlyargs + args.args
            defaulted = pos[len(pos) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            found.update((path.stem, node.name, arg.arg) for arg in defaulted)
    assert found == set(SETTABLE), (sorted(found - set(SETTABLE)),
                                    sorted(set(SETTABLE) - found))
