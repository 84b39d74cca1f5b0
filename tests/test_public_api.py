"""The point-model names that perfbench/ and scripts/ use must keep existing.

The benchmark's traced run wraps thermoelastic.rates/step and
ferroelectric.fe_rates/fe_step by identity (perfbench/tracing.py), so the
four must stay distinct objects: were two of them one function, every call
would be recorded under both spans.
"""
import ast
import importlib
import pathlib
import sys

import thermoform.ferroelectric as fe
import thermoform.thermoelastic as te

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = {"thermoform.thermoelastic": te, "thermoform.ferroelectric": fe}


def names_taken() -> dict[str, set[str]]:
    """Per model module, the names taken from it by any file in perfbench/ or scripts/."""
    taken = {name: set() for name in MODULES}
    for path in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")]):
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> module, for "from thermoform import thermoelastic as te"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in MODULES:
                taken[node.module].update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module == "thermoform":
                for a in node.names:
                    if f"thermoform.{a.name}" in MODULES:
                        aliases[a.asname or a.name] = f"thermoform.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                taken[aliases[node.value.id]].add(node.attr)
    return taken


def test_every_name_used_by_the_harness_exists():
    taken = names_taken()
    # the scan sees the imports it must (guards against a scan that finds nothing)
    assert {"step", "ThermoelasticState", "entropy_form"} <= taken["thermoform.thermoelastic"]
    assert {"fe_step", "FerroelectricState", "FE_COORDS"} <= taken["thermoform.ferroelectric"]
    for module, names in taken.items():
        missing = [name for name in names if not hasattr(MODULES[module], name)]
        assert not missing, f"{module} lacks {missing}"


def test_traced_targets_resolve_and_are_distinct():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    wrapped = [getattr(MODULES[module], attr) for module, attr, _ in tracing.TARGETS
               if module in MODULES]
    assert wrapped == [te.rates, te.step, fe.fe_rates, fe.fe_step]
    assert all(callable(fn) for fn in wrapped)
    assert len({id(fn) for fn in wrapped}) == 4
