"""Properties of the package source itself."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "entrokit"


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants raise typed errors
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_worker_threads_run_only_private_module_functions():
    # worker threads never run a traced public function: a tracer keeps
    # one span stack and plain counters, on the calling thread
    found, bad = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name.startswith("_")}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")):
                found += 1
                target = node.args[0] if node.args else None
                if not (isinstance(target, ast.Name) and target.id in private):
                    bad.append(f"{path.name}:{node.lineno}")
    assert found and not bad, bad


_ALLOCATORS = {"empty", "zeros", "ones", "full", "empty_like",
               "zeros_like", "ones_like", "full_like"}


def test_pool_tasks_allocate_no_array():
    # a task fills only buffers the calling thread made: arrays allocated
    # on worker threads grow glibc's per-thread arenas
    found, bad = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        submitted = {node.args[0].id for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr in ("submit", "map") and node.args
                     and isinstance(node.args[0], ast.Name)}
        for name in sorted(submitted & set(functions)):
            found += 1
            for node in ast.walk(functions[name]):
                if not isinstance(node, ast.Call):
                    continue
                allocates = (isinstance(node.func, ast.Attribute)
                             and isinstance(node.func.value, ast.Name)
                             and node.func.value.id == "np"
                             and node.func.attr in _ALLOCATORS)
                unbuffered = (_names(node.func, "draw_z") and "out" not in
                              {kw.arg for kw in node.keywords})
                if allocates or unbuffered:
                    bad.append(f"{path.name}:{node.lineno} {name}")
    assert found and not bad, bad


def test_thread_pools_are_with_statement_contexts():
    # leaving a with block shuts its pool down and joins the workers, so
    # no worker outlives the scope that started it, whatever it raises
    found, bad = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        contexts = {id(item.context_expr) for node in ast.walk(tree)
                    if isinstance(node, ast.With) for item in node.items}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and "ThreadPoolExecutor" in (getattr(node.func, "id", None),
                                                 getattr(node.func, "attr", None))):
                found += 1
                if id(node) not in contexts:
                    bad.append(f"{path.name}:{node.lineno}")
    assert found and not bad, bad


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv",
                "unsetenv"}


def test_no_module_reads_the_environment():
    # tuning lives in module constants, so no run can differ from another
    # through a variable set outside the program
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and node.attr in _ENVIRONMENT):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name in _ENVIRONMENT]
    assert not found, found


def test_popcounts_do_not_go_through_strings():
    # bin(x).count("1") builds a string per popcount; int.bit_count and
    # np.bitwise_count count the bits directly
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "count"
                    and isinstance(node.func.value, ast.Call)
                    and isinstance(node.func.value.func, ast.Name)
                    and node.func.value.func.id == "bin"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_call_of_id():
    # a table keyed by id() is correct only while something keeps each
    # keyed object alive; a freed object's id may be handed to a new one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert not found, found


def test_no_module_level_scipy_import():
    # scipy.special costs about 0.25 s to import, and most runs never call
    # it; its callers import it inside the function that needs it
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_module_reads_a_private_name_of_a_sibling():
    # a name that starts with "_" belongs to its module; what a sibling
    # needs is public, and so is traced like every public function
    siblings = {path.stem for path in SOURCE.glob("*.py")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in siblings:
                        aliases.add(alias.asname or alias.name)
                    elif (node.module in siblings
                          and alias.name.startswith("_")
                          and not alias.name.startswith("__")):
                        found.append(f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# FiniteMetricSpace._built skips the metric check, so it may be reached
# only from constructors that compute the metric from their own arguments
_BUILDERS = {"FiniteMetricSpace.from_coords", "FiniteMetricSpace.line",
             "FiniteMetricSpace.circle"}


def _scoped(node, scope=()):
    """(dotted scope of enclosing classes and functions, node) for every
    node below node."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope), child
        inner = (scope + (child.name,) if isinstance(
            child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            else scope)
        yield from _scoped(child, inner)


def _names(node, name):
    return ((isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.Name) and node.id == name))


def test_only_the_space_constructors_skip_validation():
    # a space over outside input (__init__, from_json, from_file) always
    # gets the full metric check
    found, bad = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        uses = [(scope, node.lineno) for scope, node
                in _scoped(ast.parse(path.read_text(encoding="utf-8")))
                if _names(node, "_built")]
        found += len(uses)
        bad += [f"{path.name}:{line} {scope or '<module>'}" for scope, line in uses
                if path.name != "metricspace.py" or scope not in _BUILDERS]
    assert found and not bad, bad


# the one path by which the library evaluates operators, and the command
# that evaluates one input on one parameter file
_FORWARD_CALLERS = {("fno.py", "forward_batch"), ("cli.py", "fno_eval")}


def test_forward_is_called_only_by_forward_batch_and_the_fno_command():
    found, bad = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        calls = [(scope, node.lineno) for scope, node
                 in _scoped(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and _names(node.func, "forward")]
        found += len(calls)
        bad += [f"{path.name}:{line} {scope or '<module>'}" for scope, line
                in calls if (path.name, scope) not in _FORWARD_CALLERS]
    assert found == len(_FORWARD_CALLERS) and not bad, bad


# the one routine that reads Monte-Carlo draws: both isometry checks,
# embed-check's and the expectation chain's, go through it
_MC_CALLERS = {("randomfield.py", "isometry_checks")}


def test_monte_carlo_draws_are_read_only_by_the_isometry_routine():
    found, bad = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        calls = [(scope, node.lineno) for scope, node
                 in _scoped(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call)
                 and (_names(node.func, "draw_ahead")
                      or _names(node.func, "lp_norm_mc"))]
        found += len(calls)
        bad += [f"{path.name}:{line} {scope or '<module>'}" for scope, line
                in calls if (path.name, scope) not in _MC_CALLERS]
    assert found == 2 and not bad, bad


def test_declared_dependencies_are_the_imported_ones():
    # every import statement, function-level ones included, against
    # [project].dependencies: nothing imported goes undeclared, and
    # nothing declared goes unimported
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    imported = set()
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"entrokit"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", spec).group()
                           for spec in declared}
    assert third_party == {"numpy", "scipy", "click"}


# every .get in the config path of chains.py and cli.py, as (file, scope,
# receiver): (the most arguments it may take, why it reads no default)
_GETS = {
    ("chains.py", "ResultTable.all_passed", "self.metadata"):
        (2, "a runner's metadata, not a config"),
    ("chains.py", "_no_additional_properties", "schema"): (2, "schema walk"),
    ("chains.py", "_if", "schema"): (1, "schema walk"),
    ("chains.py", "_with_defaults", "schema"): (2, "schema walk"),
    ("chains.py", "validate_config", "cfg"):
        (1, "the experiment, read before validation to pick the schema"),
    ("cli.py", "_run_table", "cfg"):
        (1, "the experiment, read before validation to match the command"),
    ("chains.py", "build_space", "spec"):
        (1, "no circumference is the circle's own, n: no JSON constant"),
}


def test_config_defaults_are_read_only_from_the_schemas():
    # a config default is a schema "default", filled by chains in one
    # place; a .get(key, default) on a config would state it a second time
    found, bad = set(), []
    for name in ("chains.py", "cli.py"):
        tree = ast.parse((SOURCE / name).read_text(encoding="utf-8"))
        for scope, node in _scoped(tree):
            if _names(node, "read_config"):
                bad.append(f"{name}:{node.lineno} read_config")
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "setdefault")):
                continue
            key = (name, scope, ast.unparse(node.func.value))
            found.add(key)
            most = _GETS.get(key, (0, ""))[0]
            if (node.func.attr != "get"
                    or len(node.args) + len(node.keywords) > most):
                bad.append(f"{name}:{node.lineno} {key[2]}.{node.func.attr}")
    assert not bad, bad
    assert found == set(_GETS)
