"""Properties of the package source itself."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "entrokit"


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
