"""README's references to the code: every module attribute, config key and
test it cites in backticks must exist, so a rename cannot leave it stale."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dbgae
from dbgae.pipeline import RunConfig

ROOT = Path(__file__).resolve().parents[1]
MODULES = {m.name for m in pkgutil.iter_modules(dbgae.__path__)}
SECTIONS = {  # config section -> its dataclass
    f.name: f.default_factory for f in dataclasses.fields(RunConfig) if callable(f.default_factory)
}


def code_spans() -> list[str]:
    """README's inline code spans, fenced blocks left out, line breaks as spaces."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    return [span.replace("\n", " ") for span in re.findall(r"`([^`]+)`", text)]


def module_references() -> list[str]:
    """Spans of the form ``x.y`` (more dotted names, a trailing ``*``) whose
    ``x`` is a module of the package."""
    return sorted(
        {
            span
            for span in code_spans()
            if re.fullmatch(r"[a-z_]+(\.\w+)+\*?", span) and span.split(".")[0] in MODULES
        }
    )


def cited_tests() -> list[str]:
    """``test_*`` and ``Test*`` names in spans that are not file paths."""
    return sorted(
        {
            name
            for span in code_spans()
            if "/" not in span and not span.endswith(".py")
            for name in re.findall(r"\b(?:Test\w+|test_\w+)", span)
        }
    )


def defined_tests() -> set[str]:
    names = set()
    for path in [*(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
    return names


def resolves(reference: str) -> bool:
    """An attribute path of ``dbgae.x``, or a field of config section ``x``;
    a trailing ``*`` matches any name with that prefix."""
    head, *path = reference.split(".")
    prefix = path[-1].endswith("*")
    if prefix:
        path[-1] = path[-1][:-1]

    def has(names, last):
        return any(n.startswith(last) for n in names) if prefix else last in names

    if head in SECTIONS and len(path) == 1:
        fields = {f.name for f in dataclasses.fields(SECTIONS[head]())}
        if has(fields, path[0]):
            return True
    obj = importlib.import_module(f"dbgae.{head}")
    for name in path[:-1]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return has(dir(obj), path[-1])


def test_the_readme_cites_modules_and_tests():
    # the guard below would pass on a README it failed to parse
    assert len(module_references()) >= 30 and len(cited_tests()) >= 15


def test_every_module_reference_resolves():
    stale = [ref for ref in module_references() if not resolves(ref)]
    assert not stale, f"README cites names that do not exist: {stale}"


def test_every_cited_test_exists():
    missing = sorted(set(cited_tests()) - defined_tests())
    assert not missing, f"README cites tests that do not exist: {missing}"


@pytest.mark.parametrize(
    "reference, ok",
    [
        ("model.train", True),
        ("graph.eps", True),
        ("model.DECODE_*", True),
        ("runtime.Worker.send", True),
        ("runtime.helper_thread", False),
        ("kernels.DenseBlockPath.chunked", False),
        ("model.no_such_*", False),
    ],
)
def test_the_resolver_tells_names_from_stale_ones(reference, ok):
    assert resolves(reference) == ok
