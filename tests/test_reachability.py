"""Static checks over src/wcalc: every top-level definition and every
method is reached by something that runs, and every import is used.

"Reached" is by name: a top-level definition counts as reached when its
name is loaded or read as an attribute, and a method only when its name is
read as an attribute, outside its own body in src/wcalc (the package's
__init__.py reaches nothing), in demos/, in perfbench/, or in the
acceptance gate tests/test_acceptance.py.
perfbench/tracing.py wraps functions by their names as strings, so string
constants count there too.  Unit tests do not count: a definition that
only its own tests call serves no report.  Dunder methods are called by
the language, not by name, so they count as reached.

Parameters are held to the same rule: a parameter with a default must be
passed, by position or by keyword, by some call from the same places.
Calls match by the callee's name, and a class's __init__ by calls of the
class.  A function read as a value (a table of makers, an argument to
another call) and a call with *args or **kwargs count as setting every
parameter.  A default that no call overrides is a constant.
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

# Defaulted parameters that no call in the places above sets, kept for the
# reason given.  A parameter leaves this table as soon as a call sets it.
DEFAULT_ONLY = {
    "ConvexPL.canonical(tol)": "tests drive the merge sweep at coarser "
    "tolerances against the reference restart loop; item 21 replaces the tolerance",
    "reference_spectrum_standard_bump(dps)": "tests check the forward-error "
    "claim at two precisions",
    "check_pseudo_mg(variant)": "the Beurling half, decided through _VARIANTS",
}


def _modules():
    return {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _names(tree, strings=False) -> set[str]:
    """What tree reads: each name loaded, and each attribute as "." + its
    name; with strings, each string constant as both."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add("." + node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= {node.value, "." + node.value}
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
        read = {d.name, "." + d.name}
        if read & outside:
            continue
        if any(read & names for _, s, names in stmts if s is not d):
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
            read = "." + m.name
            if read in outside:
                continue
            if any(read in names for _, s, names in stmts if s is not c):
                continue
            if any(read in names for n, names in members if n is not m):
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


def test_only_tails_knows_the_scale_shapes():
    # every decision past the prefix asks a tails.Scale; the shapes "log"
    # and "poly" of its root sequence are spelled in tails.py alone
    spelled = [
        f"{p.name}:{n.lineno}"
        for p, tree in _modules().items() if p.name != "tails.py"
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and n.value in ("log", "poly")
    ]
    assert not spelled, f"a scale's shape outside tails.py: {spelled}"


def test_only_verdicts_spells_a_vacuous_holds():
    # a failed hypothesis holds vacuously in verdicts.implication alone;
    # every other implication calls it
    spelled = [
        f"{p.name}:{n.lineno}"
        for p, tree in _modules().items() if p.name != "verdicts.py"
        for n in ast.walk(tree)
        if isinstance(n, ast.keyword) and n.arg == "vacuous"
    ]
    assert not spelled, f"a vacuous verdict outside verdicts.implication: {spelled}"


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


def test_one_site_takes_a_derivative():
    # the sup table decides every refusal before its one batched inverse
    # FFT; a second call site would bring an unrefused derivative back
    sites = [
        f"{p.name}:{fn.name}"
        for p, tree in _modules().items()
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and _callee(n) == "spectral_derivative"
    ]
    assert sites == ["fourier.py:_sup_table"], sites


def _callee(call: ast.Call) -> str:
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", "")


# The argument that names a KEPT entry, by the name of the function called.
_KEPT_NAME_ARG = {"kept": 1, "kept_pair": 0, "pair_engine": 0}


def test_every_kept_name_is_a_kept_entry_and_back():
    # an unknown name would surface only as a KeyError on its first miss,
    # and an entry that no call names is a bound left behind
    trees = _modules()
    [entries] = [
        {k.value for k in node.value.keys}
        for node in trees[SRC / "sequences.py"].body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["KEPT"]
    ]
    named, passed_on = set(), []
    for p, tree in trees.items():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            callee = _callee(n)
            if callee not in _KEPT_NAME_ARG:
                continue
            arg = n.args[_KEPT_NAME_ARG[callee]]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                named.add(arg.value)
            elif not (p.name == "sequences.py" and isinstance(arg, ast.Name)):
                passed_on.append(f"{p.name}:{n.lineno}")
    # only the rule itself, in sequences.py, passes a name on to kept()
    assert not passed_on, f"a KEPT name that is not spelled out: {passed_on}"
    assert named <= entries, f"named but not in KEPT: {sorted(named - entries)}"
    assert entries <= named, f"in KEPT but named by no call: {sorted(entries - named)}"


def test_every_memo_is_a_kept_entry():
    # what an object keeps is a KEPT entry, read through sequences.kept();
    # a cached_property or a dataclass field(init=False) would keep a memo
    # beside the table, with no bound and no entry in it
    found = [
        f"{p.name}:{n.lineno}"
        for p, tree in _modules().items()
        for n in ast.walk(tree)
        if "cached_property" in (getattr(n, "id", None), getattr(n, "attr", None))
        or isinstance(n, ast.Call) and _callee(n) == "field" and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in n.keywords)
    ]
    assert not found, f"a memo that is not a KEPT entry: {found}"


def _defaulted(tree):
    """(name a call uses, shift of positional args, def, label) for each
    def in tree with a defaulted parameter."""
    methods = {}
    for c in ast.walk(tree):
        if isinstance(c, ast.ClassDef):
            methods.update({id(m): c.name for m in c.body})
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not (fn.args.defaults or any(fn.args.kw_defaults)):
            continue
        cls = methods.get(id(fn))
        if cls is None:
            yield fn.name, 0, fn, fn.name
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        name = cls if fn.name == "__init__" else fn.name
        yield name, 0 if static else 1, fn, f"{cls}.{fn.name}"


def _unset_defaults(modules) -> dict[str, str]:
    """Defaulted parameters that no call sets, "f(param)" -> "module.py:line"."""
    callers = list(modules.values()) + [
        ast.parse(p.read_text()) for p in [
            ROOT / "tests" / "test_acceptance.py",
            *sorted((ROOT / "demos").rglob("*.py")),
            *sorted((ROOT / "perfbench").rglob("*.py")),
        ]
    ]
    calls, values = {}, set()
    for tree in callers:
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                calls.setdefault(_callee(n), []).append(n)
            elif id(n) in called:
                continue
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                values.add(n.id)
            elif isinstance(n, ast.Attribute):
                values.add(n.attr)
    out = {}
    for path, tree in modules.items():
        for name, shift, fn, label in _defaulted(tree):
            if name in values:
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            params = [(i - shift, x.arg) for i, x in enumerate(pos)][len(pos) - len(a.defaults):]
            params += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for i, arg in params:
                if not any(
                    any(isinstance(x, ast.Starred) for x in c.args)
                    or any(k.arg in (None, arg) for k in c.keywords)
                    or i is not None and len(c.args) > i
                    for c in calls.get(name, ())
                ):
                    out[f"{label}({arg})"] = f"{path.name}:{fn.lineno}"
    return out


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = _unset_defaults(_modules())
    stray = {k: v for k, v in unset.items() if k not in DEFAULT_ONLY}
    assert not stray, f"no caller sets them; make each a constant: {stray}"
    stale = set(DEFAULT_ONLY) - set(unset)
    assert not stale, f"set by a caller now, or gone; drop from DEFAULT_ONLY: {sorted(stale)}"
