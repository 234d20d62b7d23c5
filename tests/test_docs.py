"""The prose docs name only things that exist.

Every ``python -m repro.X`` in ``README.md``, ``DESIGN.md`` and
``EXPERIMENTS.md`` imports and has a ``main`` (a module) or a
``__main__`` (a package), and every repo path they quote (``src/…``,
``scripts/…``, ``benchmarks/…``, ``tests/…``, ``examples/…``; a
``<placeholder>`` or ``*`` is a glob that must match) is in the tree.
Every ``DESIGN §N`` they, ``src/`` and ``tests/`` cite is a section
DESIGN.md has.
"""

import glob
import importlib
import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
#: A path prefix the docs name for files a run writes (git-ignored).
WRITTEN_BY_RUNS = ("benchmarks/ledger/out/",)

MODULE = re.compile(r"python3?\s+-m\s+(repro(?:\.\w+)*)")
PATH = re.compile(
    r"(?<![\w./-])((?:src|scripts|benchmarks|tests|examples)/[\w./*{},<>-]*)")


def mentions(pattern):
    found = set()
    for doc in DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
            found |= {(doc, match.rstrip(".,"))
                      for match in pattern.findall(handle.read())}
    return sorted(found)


@pytest.mark.parametrize("doc, name", mentions(MODULE))
def test_every_module_the_docs_run_has_an_entry_point(doc, name):
    module = importlib.import_module(name)
    assert (hasattr(module, "main")
            or importlib.util.find_spec(f"{name}.__main__") is not None), (
        f"{doc}: python -m {name} has no main")


def test_every_path_the_docs_quote_exists():
    missing = [f"{doc}: {path}" for doc, path in mentions(PATH)
               if not path.startswith(WRITTEN_BY_RUNS)
               and not glob.glob(os.path.join(
                   ROOT, re.sub(r"<\w+>", "*", path)))]
    assert not missing, "\n".join(missing)


#: ``DESIGN §N``, ``DESIGN.md §N`` or ``§N of `DESIGN.md```.
DESIGN_SECTION = re.compile(
    r"DESIGN(?:\.md)?`?\s+§(\d+)|§(\d+)\s+of\s+`DESIGN\.md`")


def test_every_design_section_reference_names_a_heading():
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as handle:
        headings = set(re.findall(r"^## (\d+)\. ", handle.read(), re.M))
    paths = [os.path.join(ROOT, doc) for doc in DOCS]
    for top in ("src", "tests"):
        paths += glob.glob(os.path.join(ROOT, top, "**", "*.py"),
                           recursive=True)
    assert len(paths) > 100
    dangling = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        dangling += [f"{os.path.relpath(path, ROOT)}: §{a or b}"
                     for a, b in DESIGN_SECTION.findall(text)
                     if (a or b) not in headings]
    assert not dangling, "\n".join(dangling)
