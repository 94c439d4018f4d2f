"""Every optional setting of fluxlab is set by a program, or kept for a reason.

A parameter with a default, or a dataclass field with one, that no call in
src/ or perfbench/ (the CLI and the benchmark harness) sets to a value other
than its default has one value in use, so it belongs in the code as a
constant.  KEPT names the settings that only tests set, each with the
reason it stays settable.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT = {
    "CovariantKernel.evaluate": "the dense oracle path",
    "MagneticLatticeModel.potential": "a model input",
    "Switch.center": "the switch-translation identity",
    "build_hamiltonian.gauge": "the gauge-invariance identity",
    "index_by_fedosov.n": "the Fedosov power-independence identity",
    "index_by_odd_trace.n": "the odd-power independence identity",
    "lattice_index.window_radius": "the ROADMAP item 5 window sweep",
    "weighted_triple_kernel.x0": "the oracle",
}


def _settings():
    """(name, callee, position, default) of every optional setting in
    src/fluxlab; position counts the positional arguments of a call that
    sets it, None for a keyword-only parameter, and default is the node of
    its default value."""
    for path in sorted((ROOT / "src" / "fluxlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            functions = [(node, "")] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                functions = [(f, node.name + ".") for f in node.body
                             if isinstance(f, ast.FunctionDef)]
                if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                              and "init=False" not in ast.unparse(f)]
                    for position, f in enumerate(fields):
                        if f.value is not None:
                            yield f"{node.name}.{f.target.id}", node.name, position, f.value
            for fn, owner in functions:
                # a method's first parameter (self or cls) is not passed
                params = (fn.args.posonlyargs + fn.args.args)[1 if owner else 0:]
                first = len(params) - len(fn.args.defaults)
                for position, arg in enumerate(params[first:], first):
                    yield (f"{owner}{fn.name}.{arg.arg}", fn.name, position,
                           fn.args.defaults[position - first])
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield f"{owner}{fn.name}.{arg.arg}", fn.name, None, default


def _same_value(node, default):
    """Whether an argument passes the default itself: equal literals, or the
    same expression."""
    try:
        return ast.literal_eval(node) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(node) == ast.dump(default)


def _program_calls():
    """The (keywords, positional arguments) of every call in src/ and
    perfbench/, by callee name."""
    calls = {}
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(
                    ({k.arg: k.value for k in node.keywords}, node.args))
    return calls


def _sets(call, name, position, default):
    """Whether a call gives the setting a value other than its default; a
    starred argument may reach any position."""
    keywords, args = call
    if name in keywords:
        return not _same_value(keywords[name], default)
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in args[:position + 1]):
        return True
    return position < len(args) and not _same_value(args[position], default)


def test_every_optional_setting_is_set_by_a_program_or_kept():
    calls = _program_calls()
    unset = {name for name, callee, position, default in _settings()
             if not any(_sets(call, name.rsplit(".", 1)[1], position, default)
                        for call in calls.get(callee, []))}
    only_tests = sorted(unset - KEPT.keys())
    assert not only_tests, f"settings that no program sets: {', '.join(only_tests)}"
    stale = sorted(KEPT.keys() - unset)
    assert not stale, f"KEPT settings that a program sets or that are gone: {stale}"
