"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for source in blocks:
        exec(compile(source, README.name, "exec"), {})
    out = capsys.readouterr().out
    assert "privacy_passed = true" in out and "accuracy_passed = true" in out
