import ast
import importlib
from pathlib import Path

import mealy

PUBLIC = [
    "Automaton", "CensusReport", "EventuallyPeriodicWord", "GroupWord", "SchreierGraph",
    "SpectrumReport", "Verdict", "act", "act_inf", "ball_size", "build", "builtin",
    "char_coeffs", "char_rational", "classify_cotransitive", "cotransitivity", "diameter",
    "dual", "dual_act", "enumerate_classes", "find_level_witness", "first_intransitive_level",
    "gap_series", "group_section", "inverse", "is_transitive_exact", "merge_reports",
    "minimize", "minimize_map", "orbit_cycle", "orbits_on_level", "product", "properties",
    "relabel", "spectrum", "stabilizes_infinite", "steer_to", "two_sided_gap", "union",
    "verify_lift", "__version__",
]


def test_public_api_pinned():
    assert len(PUBLIC) == 41
    assert mealy.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(mealy, name), name



def test_benchmark_harness_names_resolve():
    # perfbench/ imports library names and tracing.py::_specials reads three
    # more; without this check, deleting one breaks only the harness
    harness = Path(__file__).resolve().parent.parent / "perfbench"
    names = [("mealy.automaton", "_signed_letters"), ("mealy.classify", "table_space_size"),
             ("mealy.words", "GroupWord")]
    for path in sorted(harness.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mealy":
                names += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [(alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "mealy"]
    assert len(names) > 3
    for module, name in names:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or ImportError


def test_no_unused_imports_in_library():
    # a deletion that leaves its import behind fails here; a name listed in
    # __all__ counts as used, as __init__ imports it only to re-export it
    unused = []
    for path in sorted(Path(mealy.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_no_dead_private_helpers_in_library():
    # a module-level _name function or class that nothing in the library
    # names, outside its own body, is dead: delete it with its last caller
    private, named = {}, set()
    for path in sorted(Path(mealy.__file__).resolve().parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_"):
                private[own] = f"{path.name}:{stmt.lineno} {own}"
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    named.add(name)
    assert len(private) > 90
    assert [where for name, where in private.items() if name not in named] == []


def test_only_the_cli_opens_files_for_writing():
    # every output file and its manifest go through cli._write
    writers = []
    for path in sorted(Path(mealy.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if any(not isinstance(m, ast.Constant) or set(m.value) & set("wax+")
                       for m in modes):
                    writers.append(f"{path.name}:{node.lineno}")
    assert writers and all(w.startswith("cli.py:") for w in writers), writers


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements; a check must be an explicit raise
    asserts = []
    for path in sorted(Path(mealy.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
    assert asserts == []


def test_only_spectral_imports_ctypes():
    # BLAS thread control lives in spectral._openblas_threads alone
    importers = []
    for path in sorted(Path(mealy.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers and all(i.startswith("spectral.py:") for i in importers), importers


def test_only_levels_creates_a_thread_pool():
    # levels._executor is the one pool; a kernel that wants threads, the
    # census key pass among them, splits its ranges on levels._split
    creators = []
    for path in sorted(Path(mealy.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "ThreadPoolExecutor" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                creators.append(f"{path.name}:{node.lineno}")
    assert sorted({c.split(":")[0] for c in creators}) == ["levels.py"], creators
