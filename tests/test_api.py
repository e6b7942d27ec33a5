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
