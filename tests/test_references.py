"""Names and examples that files outside the package rely on: the
benchmark tracer's targets, README's library example, and (for CI's
python -O runs) a package that checks nothing with assert."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

from binomconv import bijection
from binomconv.configuration import parse_compact

ROOT = Path(__file__).resolve().parents[1]


def _tracer_targets() -> tuple:
    """The TARGETS tuple of perfbench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for name, module_name, path, _kind in targets:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{name}: {module_name}.{path}")
    assert missing == []


def test_phi_and_phi_inverse_run_every_bijection_step_the_tracer_times(
    cold_memos, monkeypatch
):
    # A traced name that phi and phi_inverse never call would time nothing.
    steps = [
        path
        for _name, module_name, path, _kind in _tracer_targets()
        if module_name == "binomconv.bijection" and path not in ("phi", "phi_inverse")
    ]
    assert sorted(steps) == [
        "compress", "decode_pairs", "expand", "phi_section_forward", "phi_section_inverse",
    ]
    calls = dict.fromkeys(steps, 0)

    def counting(name):
        exact = getattr(bijection, name)

        def counted(*args):
            calls[name] += 1
            return exact(*args)

        return counted

    for name in steps:
        monkeypatch.setattr(bijection, name, counting(name))
    assert str(bijection.phi(parse_compact(".A11.b2B2.."))) == "BbAbabBaAbA"
    for image, preimage in (
        ("ba", "1."),
        ("BAbA", "11.."),
        ("aBBAaaBbABBBb", "a1A1aa.A.BBBb"),
    ):
        assert str(bijection.phi_inverse(parse_compact(image))) == preimage
    assert all(calls.values()), calls


def _readme_block(heading: str) -> str:
    """The first python code block under a README heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"\n{heading}\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def test_readme_library_example_gives_the_values_in_its_comments():
    block = _readme_block("## Library")
    namespace: dict = {}
    results = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            results[source] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert repr(namespace["image"]) == "'BbAbabBaAbA'"
    assert repr(results["convolution_sum((0, 0), 2)"]) == "Fraction(16, 1)"
    assert results["convolution_sum((Fraction(-3, 2), Fraction(3, 2)), 1)"] == 4
    sizes = results["convolution_sums((0, 0), 3)"]
    assert sizes == [1, 4, 16, 64]
    assert all(type(value) is Fraction for value in sizes)
    assert repr(results["closed_form(2, 3)"]) == "Fraction(30, 1)"


def test_no_module_checks_with_assert():
    # python -O strips assert statements, so a check made with one would
    # pass vacuously there.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "binomconv").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
