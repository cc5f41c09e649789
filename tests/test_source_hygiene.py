"""Static checks on the package source, stdlib ``ast`` only.

No unused module-level imports, no module-level def, class or constant
that nothing names again (unless ``corrnoise.__all__`` exports it), no
function parameter that nothing reads, no default of a private function
that no call in the package overrides, a public namespace whose every
name resolves, the test-only oracles kept out of the package, and no
scipy module on import: the package needs numpy alone. Rules that
several modules apply are written once: the integer test (the one
``numbers.Integral``), the real-number test (the one ``numbers.Real``),
the memory test (the one ``"SC_PHYS_PAGES"``) and the objective list
(the one ``"max", "rms"``). The noise recurrence
has one owner: only ``blt_core`` touches a noise state's ``buffers``, and
one def there, ``_recur``, runs it for every row; so has the cohort rule:
only ``ftrl_sim`` reads ``clients_per_round``.
Every mechanism evaluator is built by ``loss_metrics.loss_fn``, the one
def that refuses a schema of another n, and no function keeps its state
in a ``nonlocal``.
Bad input has one exit: only ``cli.main`` calls a parser's ``error``,
and one flag rule: one function raises ``argparse.ArgumentTypeError``.
Only ``cli`` and ``blt_core.save_params`` open a file for writing: the
rest of the package returns data. The package starts threads only
through the executor of ``blt_core.stream_mult_inverse``, which it
imports there, so ``import corrnoise`` loads neither that executor nor
``logging``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corrnoise

SRC = Path(corrnoise.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
ORACLES = (
    "lt_toeplitz",
    "stream_mult",
    "prefix_sum_matrix",
    "toeplitz_mechanism_loss",
    "blt_errors_doubling",
    "matrix_power",
    "_matrix_power",
    "blt_loss_gradient",
    "enumerate_patterns",
    "count_patterns",
    "exact_sensitivity_bruteforce",
    "refined_eps_minimize_scalar",
    "metrics_per_round",
    "two_loop_direction",
    "wolfe_search_two_phase",
    "audit_min_sep",
    "ledger_per_round",
    "run_training_per_round",
)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _identifiers(tree):
    """Every name the code defines, reads, imports or exports."""
    names = set(_dunder_all(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
    return names


def test_source_files_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = _parse(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _dunder_all(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_public_names_resolve():
    for name in corrnoise.__all__:
        assert getattr(corrnoise, name, None) is not None, name


def test_oracles_live_only_in_tests():
    assert not set(ORACLES) & set(corrnoise.__all__)
    for path in MODULES:
        found = set(ORACLES) & _identifiers(_parse(path))
        assert not found, f"{path.name} still names {sorted(found)}"
        module = corrnoise if path.stem == "__init__" else importlib.import_module(
            f"corrnoise.{path.stem}"
        )
        assert not [n for n in ORACLES if hasattr(module, n)]


def _loaded_on_import(*packages):
    """The modules of ``packages`` that ``import corrnoise`` loads."""
    # a fresh interpreter, since this one has the test oracles loaded
    code = (
        "import sys, corrnoise; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_on_import("scipy") == "[]"


def test_import_loads_no_executor():
    # concurrent.futures pulls in logging, queue and traceback, about 7 ms:
    # the noise round imports it only when a row is wider than one block
    assert _loaded_on_import("concurrent", "logging") == "[]"


def _reads(tree):
    """Names read anywhere in the tree: loads, attribute names and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _module_level_names(tree):
    """(name, line) of every def, class and constant at module level, bar dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def test_module_level_names_are_named_again_or_exported():
    # a private name nothing reads is dead, and so is a public def only tests call
    trees = {path.name: _parse(path) for path in MODULES}
    named = set().union(*map(_reads, trees.values())) | set(corrnoise.__all__)
    orphans = sorted(
        f"{file}: {name} (line {line})"
        for file, tree in trees.items()
        for name, line in _module_level_names(tree)
        if name not in named
    )
    assert orphans == [], f"module-level names nothing in src names again: {orphans}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_parameters_are_read(path):
    unread = []
    for node in ast.walk(_parse(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{getattr(node, 'name', 'lambda')}({arg.arg}) line {node.lineno}"
            for arg in params
            if arg is not None and arg.arg not in ("self", "cls") and arg.arg not in loaded
        ]
    assert unread == [], f"{path.name}: parameters never read {unread}"


def _defaulted_params(func):
    """(name, position or None) of each parameter of ``func`` with a default."""
    a = func.args
    positional = [*a.posonlyargs, *a.args]
    first = len(positional) - len(a.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from ((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)


def _passes(call, name, position):
    """Does ``call`` pass the parameter ``name`` at ``position``, or may it?"""
    if any(k.arg in (name, None) for k in call.keywords):  # None: a **mapping
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_private_defaults_are_passed_by_some_call():
    # a default no call overrides is a constant in disguise
    trees = [_parse(path) for path in MODULES]
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    unset = [
        f"{path.name}: {func.name}({param})"
        for path, tree in zip(MODULES, trees)
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        and func.name.startswith("_")
        and not func.name.startswith("__")
        for param, position in _defaulted_params(func)
        if not any(_passes(call, param, position) for call in calls.get(func.name, []))
    ]
    assert unset == [], f"defaults no call in src passes: {unset}"


def _modules_where(found):
    """Names of the src modules in whose AST some node satisfies ``found``."""
    return [path.name for path in MODULES if any(map(found, ast.walk(_parse(path))))]


def _defs_where(found):
    """(module, top-level def) of every node in src that satisfies ``found``."""
    return [
        (path.name, getattr(stmt, "name", "<module>"))
        for path in MODULES
        for stmt in _parse(path).body
        for node in ast.walk(stmt)
        if found(node)
    ]


def test_integer_rule_written_once():
    def integral(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "Integral"
        return isinstance(node, ast.alias) and node.name == "Integral"

    assert _modules_where(integral) == ["blt_core.py"]


def test_real_rule_written_once():
    def real(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "Real"
        return isinstance(node, ast.alias) and node.name == "Real"

    assert _modules_where(real) == ["blt_core.py"]


def test_memory_rule_written_once():
    def physical_pages(node):
        return isinstance(node, ast.Constant) and node.value == "SC_PHYS_PAGES"

    assert _defs_where(physical_pages) == [("blt_core.py", "_require_memory")]


def test_noise_recurrence_written_once():
    # one kernel runs every noise row: the round's chunks and the block's rows
    def reduce_or_decay(node):
        if isinstance(node, ast.AugAssign):
            return isinstance(node.op, ast.Mult) and getattr(node.value, "id", None) == "theta"
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "reduce"
            and getattr(node.value, "attr", None) == "subtract"
        )

    assert _defs_where(reduce_or_decay) == [("blt_core.py", "_recur")] * 2

    def calls_recur(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_recur"

    assert sorted(_defs_where(calls_recur)) == [
        ("blt_core.py", "stream_mult_inverse"),
        ("blt_core.py", "stream_mult_inverse_block"),
    ]
    # _fill only draws: a supplied row goes to the kernel as it is
    blt_core = _parse(SRC / "blt_core.py")
    fill = next(f for f in blt_core.body if getattr(f, "name", None) == "_fill")
    assert [arg.arg for arg in fill.args.args] == ["out", "state"]


def test_usage_errors_exit_only_in_main():
    # a command raises ValueError or OSError, and main alone turns it into
    # a usage error, so no input rule is written per call site
    def error_calls(tree):
        return sum(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "error"
            for node in ast.walk(tree)
        )

    sites = {path.name: error_calls(_parse(path)) for path in MODULES}
    cli = _parse(SRC / "cli.py")
    main = next(f for f in cli.body if isinstance(f, ast.FunctionDef) and f.name == "main")
    assert {name: count for name, count in sites.items() if count} == {"cli.py": 1}
    assert error_calls(main) == 1


def test_objective_list_written_once():
    def pair(node):
        if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return False
        return {"max", "rms"} <= {e.value for e in node.elts if isinstance(e, ast.Constant)}

    assert _modules_where(pair) == ["blt_core.py"]


def test_noise_buffers_touched_only_in_blt_core():
    # the parsed command line's ``args.buffers`` is the --buffers count, not a state
    def buffers(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "buffers"
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")
        )

    assert _modules_where(buffers) == ["blt_core.py"]


def test_cohort_size_read_only_in_ftrl_sim():
    # run_training checks the cohort rule, so no caller needs the cohort size
    def cohort_size(node):
        return isinstance(node, ast.Attribute) and node.attr == "clients_per_round"

    assert _modules_where(cohort_size) == ["ftrl_sim.py"]


def test_files_are_written_only_by_the_cli_and_save_params():
    # the simulator and the other library modules return data, and the
    # command line writes it; save_params writes the parameter file
    def writing_open(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) != "open":
            return False
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        # a mode or os.open flag that is no string literal may write
        return any(
            not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes
        )

    writers = set(_defs_where(writing_open))
    assert ("cli.py", "_write_csv") in writers
    assert {w for w in writers if w[0] != "cli.py"} == {("blt_core.py", "save_params")}


def test_flag_rule_written_once():
    # one argparse type factory checks every numeric flag
    def type_error(node):
        return isinstance(node, ast.Raise) and any(
            getattr(n, "attr", getattr(n, "id", None)) == "ArgumentTypeError"
            for n in ast.walk(node)
        )

    # two raises there: text that is no number, and a number out of bounds
    assert set(_defs_where(type_error)) == {("cli.py", "_number")}


def test_evaluator_contract_written_once():
    # one factory fixes an evaluator's n and keeps its schema-free errors
    def n_refusal(node):
        return isinstance(node, ast.Constant) and "evaluator has n" in str(node.value)

    assert _defs_where(n_refusal) == [("loss_metrics.py", "loss_fn")]
    assert _modules_where(lambda node: isinstance(node, ast.Nonlocal)) == []


def test_threads_only_through_the_noise_rounds_executor():
    # the wide noise round's one worker is the package's only thread
    for path in MODULES:
        assert "threading" not in _identifiers(_parse(path)), path.name

    def executor_import(node):
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("concurrent")
        return isinstance(node, ast.alias) and node.name.startswith("concurrent")

    assert _defs_where(executor_import) == [("blt_core.py", "stream_mult_inverse")]
