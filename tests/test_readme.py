"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs(capsys):
    text = README.read_text()
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no Library use python block"
    exec(compile(match.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "4"
