"""Documentation health checks.

Three gates keep the docs truthful as the code evolves:

* every ``python`` code fence in ``README.md`` and every ``::`` example
  block of the ``repro`` package docstring must *execute* cleanly against
  the installed package (quickstarts that rot are worse than none);
* every ``python`` code fence in ``docs/*.md`` must at least compile
  (some intentionally reference user-defined placeholder classes);
* every relative link in README/docs must point at a file that exists, and
  every exported name in ``repro.__all__`` must carry a real docstring.

A fourth guard imports every module under ``repro``, so a dangling import
left by a deleted module fails here even in modules that only run in
subprocesses (``repro.service.__main__``).
"""

import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md"))

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)\)")
_LITERAL_BLOCK = re.compile(r"::\n\n((?:(?: {4}.*)?\n)+)")


def python_snippets(path):
    return _FENCE.findall(path.read_text())


def test_readme_exists_with_required_sections():
    text = README.read_text()
    for heading in ("Install", "Quickstart", "Package map",
                    "Running the tests", "Running the benchmarks"):
        assert heading in text, f"README.md is missing the {heading!r} section"


def test_readme_snippets_execute():
    snippets = python_snippets(README)
    assert snippets, "README.md should contain python quickstart snippets"
    for index, snippet in enumerate(snippets):
        namespace = {}
        try:
            exec(compile(snippet, f"README.md[snippet {index}]", "exec"),
                 namespace)
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(f"README snippet {index} failed: {error}\n{snippet}")


def test_package_docstring_examples_execute():
    import repro

    blocks = _LITERAL_BLOCK.findall(repro.__doc__)
    assert len(blocks) == 2, "the package docstring should show two examples"
    for index, block in enumerate(blocks):
        code = textwrap.dedent(block)
        try:
            exec(compile(code, f"repro.__doc__[example {index}]", "exec"), {})
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(f"package docstring example {index} failed: "
                        f"{error}\n{code}")


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_doc_snippets_compile(doc):
    for index, snippet in enumerate(python_snippets(doc)):
        compile(snippet, f"{doc.name}[snippet {index}]", "exec")


@pytest.mark.parametrize("path", [README] + DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    text = path.read_text()
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), \
            f"{path.name} links to missing file {target!r}"


def test_architecture_doc_covers_the_subsystem():
    doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
    for term in ("Backend", "registry", "route_task", "NoiseModel",
                 "version", "term_cache_key", "evaluate_observable",
                 "lifecycle", "kernels"):
        assert term in doc, f"architecture.md should document {term!r}"


def test_every_public_export_has_a_docstring():
    import repro

    missing = []
    for name in repro.__all__:
        if name == "__version__":
            continue
        doc = inspect.getdoc(getattr(repro, name)) or ""
        if len(doc) < 60:
            missing.append(name)
    assert not missing, \
        f"public exports lack substantial docstrings: {missing}"


def test_every_module_imports():
    import repro

    def fail(name):
        raise ImportError(f"cannot import package {name}")

    names = [module.name for module in pkgutil.walk_packages(
        repro.__path__, "repro.", onerror=fail)]
    assert "repro.service.__main__" in names
    for name in names:
        importlib.import_module(name)
