"""Every fenced python block in ``docs/*.md`` must stay executable.

The docs checker used to cover only README.md; this module extends it to the
whole ``docs/`` suite (the SERVING tutorial, the INVALIDATION contract, and
anything added later — discovery is by glob, so new documents are covered
the moment they land).  Blocks run in order in one shared namespace per
document, exactly as a reader following the tutorial would execute them.
"""

from __future__ import annotations

import pytest

from mdblocks import REPO_ROOT, execute_python_blocks, fenced_blocks

DOCS_DIR = REPO_ROOT / "docs"
DOCS = sorted(DOCS_DIR.glob("*.md"))

#: Documents that are executable tutorials — they must contain python blocks
#: (plain prose/diagram documents like ARCHITECTURE.md are exempt).
TUTORIALS = ("SERVING.md", "INVALIDATION.md", "LOADGEN.md",
             "OBSERVABILITY.md")


def test_docs_directory_has_documents():
    assert DOCS, "docs/ must contain markdown documents"


def test_expected_documents_present():
    names = {path.name for path in DOCS}
    assert {"ARCHITECTURE.md", *TUTORIALS} <= names


@pytest.mark.parametrize("name", TUTORIALS)
def test_tutorials_contain_executable_blocks(name):
    assert fenced_blocks(DOCS_DIR / name, "python"), (
        f"{name} must contain executable python examples")


@pytest.mark.parametrize("doc", DOCS, ids=[path.name for path in DOCS])
def test_docs_python_blocks_execute(doc):
    """Execute every python block of every docs/*.md, in document order."""
    execute_python_blocks(doc)
