"""Every public name of the library has a caller besides its own tests, and
the library raises no untyped ValueError.

A public name is a module-level function, class or constant of a library
module, or a method or property of one of its classes, whose name does not
start with an underscore.  It counts as used when the library (the CLI
included) or the acceptance suite refers to it outside its own definition; a
method counts by its attribute name.  Imports and re-exports are not
references.  The names in KEPT_REFERENCES are the only exceptions.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "ldprobust").glob("*.py"))
CALLERS = LIBRARY + [ROOT / "tests" / "test_acceptance.py"]

#: Public names that nothing in CALLERS uses, each with the reason it stays;
#: a method is named "Class.method".
KEPT_REFERENCES = {
    "dual_upper_bound": "the Gram solver's own certificate, computed from any factors",
    "subset_bilinear_max": "the exact subset maximum, the lower side of the Gram sandwich",
    "EstimateResult.to_text": "the iteration trace format the README documents",
    "GramSolution.matrix": "the d x d Gram matrix M* that the score tests check against",
    "_Parser.error": "argparse calls it: it overrides ArgumentParser.error to exit 1",
}


def _locals(fn) -> set:
    """Names a function or lambda binds: its parameters and every assignment target in it."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    names |= {n.id for n in ast.walk(fn)
              if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    return names


def _references(path: Path) -> set:
    """Names a module reads, as a global name or as an attribute.

    A name read inside the def, class or assignment that binds it, or inside
    a function that binds a local of that name, is not a reference.
    """
    found = set()

    def visit(node, skip):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            skip = skip | {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            skip = skip | {t.id for t in targets if isinstance(t, ast.Name)}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            skip = skip | _locals(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in skip:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, skip)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return found


def _public_names() -> set:
    """The library's public module-level names, and its classes' public methods
    and properties as "Class.method"."""
    names = set()
    for path in LIBRARY:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return {name for name in names if not name.rpartition(".")[2].startswith("_")}


def _uncalled() -> set:
    referenced = set().union(*(_references(path) for path in CALLERS))
    return {name for name in _public_names() if name.rpartition(".")[2] not in referenced}


def test_every_public_name_has_a_caller():
    unused = _uncalled() - set(KEPT_REFERENCES)
    assert not unused, f"public names with no caller outside the tests: {sorted(unused)}"


def test_kept_references_are_public_and_uncalled():
    kept = set(KEPT_REFERENCES)
    assert kept <= _public_names()
    assert kept <= _uncalled(), "a kept reference has a caller; drop it from the list"


def test_public_names_cover_constants_methods_and_properties():
    names = _public_names()
    assert {"MAX_D", "RapporChannel.create", "RapporChannel.exceeds_theory_range",
            "_Parser.error"} <= names
    assert not {"_canonical_order", "RapporChannel.__post_init__", "__all__"} & names


def test_references_skip_own_definition_and_locals(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from x import f, tv\n\n"
                    "def g(n):\n    return g(n - 1)\n\n"
                    "LIMIT = 3\n\n"
                    "def h(k):\n    tv = f(LIMIT)\n    return tv + k + mod.attr\n")
    assert _references(path) == {"f", "LIMIT", "mod", "attr"}


def test_library_raises_no_untyped_value_error():
    # the line-by-line search of CI's "No untyped ValueError" step
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted((ROOT / "src" / "ldprobust").rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "raise ValueError" in line]
    assert not found, "raise a typed error from ldprobust.errors instead: " + "; ".join(found)
