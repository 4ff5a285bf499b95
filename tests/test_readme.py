"""The README's Python examples run as written, and the members it names exist."""

import dataclasses
import re
from pathlib import Path

import dpsynth

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for source in blocks:
        exec(compile(source, README.name, "exec"), {})
    out = capsys.readouterr().out
    assert "privacy_passed = true" in out and "accuracy_passed = true" in out


def test_readme_names_only_members_that_exist():
    """Each `Class.member` or `Class.member(...)` the README names, for a class that
    dpsynth exports, is an attribute of the class or one of its dataclass fields."""
    named = re.findall(r"`([A-Z]\w*)\.(\w+)[(`]", README.read_text(encoding="utf-8"))
    classes = {name: getattr(dpsynth, name) for name in dpsynth.__all__}
    refs = sorted({(c, m) for c, m in named if isinstance(classes.get(c), type)})
    assert refs
    missing = []
    for c, m in refs:
        cls = classes[c]
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        if not (hasattr(cls, m) or m in fields):
            missing.append(f"{c}.{m}")
    assert missing == []
