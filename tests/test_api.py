"""Every public name of the package has a caller besides its own tests, and
the library raises no untyped ValueError.

A function, class or constant in `ldprobust.__all__` counts as used when the
library (the CLI included) or the acceptance suite refers to it outside its
own definition.  Imports and re-exports are not references.  The names in
KEPT_REFERENCES, the exact references the tests hold the Gram solver
against, are the only exceptions.
"""

import ast
import types
from pathlib import Path

import ldprobust

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted((ROOT / "src" / "ldprobust").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

#: Public names that nothing in CALLERS uses, each with the reason it stays.
KEPT_REFERENCES = {
    "dual_upper_bound": "the Gram solver's own certificate, computed from any factors",
    "subset_bilinear_max": "the exact subset maximum, the lower side of the Gram sandwich",
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
    return {name for name in ldprobust.__all__
            if not isinstance(getattr(ldprobust, name), types.ModuleType)}


def _referenced() -> set:
    return set().union(*(_references(path) for path in CALLERS))


def test_every_public_name_has_a_caller():
    unused = _public_names() - _referenced() - set(KEPT_REFERENCES)
    assert not unused, f"public names with no caller outside the tests: {sorted(unused)}"


def test_kept_references_are_public_and_uncalled():
    kept = set(KEPT_REFERENCES)
    assert kept <= _public_names()
    assert not kept & _referenced(), "a kept reference has a caller; drop it from the list"


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
