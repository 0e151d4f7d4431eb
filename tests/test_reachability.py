"""Static checks over src/wcalc: every top-level definition and every
method is reached by something that runs, and every import is used.

"Reached" is by name: a definition counts as reached when its name is
loaded or read as an attribute outside its own body in src/wcalc (the
package's __init__.py reaches nothing), in demos/, in
perfbench/, or in the acceptance gate tests/test_acceptance.py.
perfbench/tracing.py wraps functions by their names as strings, so string
constants count there too.  Unit tests do not count: a definition that
only its own tests call serves no report.  Dunder methods are called by
the language, not by name, so they count as reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wcalc"

# Definitions that nothing runs yet, kept for the caller that ROADMAP.md
# gives them.  A name leaves this table as soon as it is reached.
AWAITING_CALLER = {
    "check_L_consequences": "item 12: matrix conditions report",
    "check_BR_triangle": "item 12: matrix conditions report",
    "check_lemma_assofunc": "item 12: analyze --seq report",
    "check_relation_comparison": "item 12: matrix compare report",
    "sandwich_construct": "items 11 and 12: non-quasianalyticity verdict",
    "small_terms_diagnostic": "items 11 and 12: non-quasianalyticity verdict",
    "check_lemma53_ii": "items 11 and 12: Fourier report",
    "tail_from_json": "item 5: wcalc replay",
    "ConvexPL.from_json": "item 5: wcalc replay",
}


def _modules():
    return {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _names(tree, strings=False) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _unreached(modules) -> dict[str, str]:
    """Unreached top-level definitions, name -> "module.py:line", and
    unreached methods, "Class.name" -> "module.py:line"."""
    outside = _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for p in sorted((ROOT / "demos").rglob("*.py")):
        outside |= _names(ast.parse(p.read_text()))
    for p in sorted((ROOT / "perfbench").rglob("*.py")):
        outside |= _names(ast.parse(p.read_text()), strings=True)
    # every top-level statement of src/wcalc with the names it reads
    stmts = [(p, node, _names(node)) for p, tree in modules.items()
             if p.name != "__init__.py" for node in tree.body]
    out = {}
    for path, d, _ in stmts:
        if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if d.name in outside:
            continue
        if any(d.name in names for _, s, names in stmts if s is not d):
            continue
        out[d.name] = f"{path.name}:{d.lineno}"
    for path, c, _ in stmts:
        if not isinstance(c, ast.ClassDef):
            continue
        members = [(m, _names(m)) for m in c.body]
        for m, _ in members:
            if not isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if m.name.startswith("__") and m.name.endswith("__"):
                continue
            if m.name in outside:
                continue
            if any(m.name in names for _, s, names in stmts if s is not c):
                continue
            if any(m.name in names for n, names in members if n is not m):
                continue
            out[f"{c.name}.{m.name}"] = f"{path.name}:{m.lineno}"
    return out


def test_every_definition_is_reached():
    unreached = _unreached(_modules())
    stray = {k: v for k, v in unreached.items() if k not in AWAITING_CALLER}
    assert not stray, f"reached by nothing that runs; delete them: {stray}"
    # the table shrinks as callers arrive
    stale = set(AWAITING_CALLER) - set(unreached)
    assert not stale, f"reached now, or gone; drop from AWAITING_CALLER: {sorted(stale)}"


def _unused_imports(path, tree) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                bound.setdefault(a.asname or a.name.split(".")[0], node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    unused = [u for p, t in _modules().items() for u in _unused_imports(p, t)]
    assert not unused, f"imported and never used: {unused}"


def test_only_sequences_reads_a_rows_dict():
    # what a row keeps is declared in sequences.KEPT and read through
    # sequences.kept(); any other module touches only its own __dict__
    touched = [
        f"{p.name}:{n.lineno}"
        for p, tree in _modules().items() if p.name != "sequences.py"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "__dict__"
        and not (isinstance(n.value, ast.Name) and n.value.id == "self")
    ]
    assert not touched, f"a row's __dict__ outside sequences.py: {touched}"


def test_only_convex_reads_a_convex_pls_arrays():
    # a ConvexPL is its float arrays, built and read in convex.py alone, so
    # exact slopes (ROADMAP item 9) change one construction path
    private = {"_xs", "_vs", "_seg", "_from_arrays"}
    touched = [
        f"{p.name}:{n.lineno} {n.attr}"
        for p, tree in _modules().items() if p.name != "convex.py"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in private
    ]
    assert not touched, f"a ConvexPL's arrays outside convex.py: {touched}"


def test_one_site_builds_a_sampled_function():
    # the builders return the one function that fourier._function_of keeps
    # per construction; a second call site would bring copies back
    sites = [
        f"{p.name}:{fn.name}"
        for p, tree in _modules().items()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "SampledFunction"
    ]
    assert sites == ["fourier.py:_function_of"], sites
