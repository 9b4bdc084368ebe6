"""Every Python name that README.md gives as a backticked `lgbg.<dotted
name>` (or the start of a call to one) must exist, so renaming an API
leaves no stale name in the README."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def resolve(dotted: str):
    """The object at `dotted`: its longest importable module prefix, then
    attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_lgbg_name_in_readme_resolves():
    names = re.findall(r"`(lgbg(?:\.\w+)+)[`(]", README.read_text(encoding="utf-8"))
    assert len(names) >= 9
    unresolved = []
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ModuleNotFoundError):
            unresolved.append(name)
    assert unresolved == []


def test_a_renamed_name_does_not_resolve():
    assert resolve("lgbg.dataset.load_dataset").__name__ == "load_dataset"
    for stale in ("lgbg.graphs.build_samples", "lgbg.no_such_module.x"):
        try:
            resolve(stale)
        except (AttributeError, ModuleNotFoundError):
            continue
        raise AssertionError(f"{stale} resolved")
