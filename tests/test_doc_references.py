"""Docs may only name code that exists.

Every dotted ``repro.…`` name and every back-ticked ``src/…``,
``tests/…``, ``benchmarks/…`` or ``docs/…`` path in the prose docs must
import / exist — what proves a deletion PR's docs sweep is complete.
No allow-list: a stale reference is fixed in the doc.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted([
    *ROOT.glob("docs/*.md"),
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / ".claude/skills/verify/SKILL.md",
])

DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
PATH = re.compile(r"`((?:src|tests|benchmarks|docs)/[^`\s]*)`")


def resolves(dotted: str) -> bool:
    """Import the longest module prefix, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def exists(ref: str) -> bool:
    """``path``, ``path::Class::test`` or ``path:line`` names a real file;
    ``*`` globs and every arm of one ``{a,b}`` group must match something."""
    path = ref.split("::")[0].split(":")[0].rstrip(".,;)")
    group = re.search(r"\{([^{}]*)\}", path)
    arms = ([path[:group.start()] + arm + path[group.end():]
             for arm in group.group(1).split(",")] if group else [path])
    return all(any(ROOT.glob(arm)) for arm in arms)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_reference_resolves(doc):
    text = doc.read_text(encoding="utf-8")
    broken = sorted(
        {name for name in DOTTED.findall(text) if not resolves(name)}
        | {ref for ref in PATH.findall(text) if not exists(ref)}
    )
    assert not broken, f"{doc.relative_to(ROOT)} names missing code: {broken}"
