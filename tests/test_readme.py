"""The README's quick start runs as written against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    text = README.read_text()
    section = text.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under '## Quick start'"
    return match.group(1)


def test_quick_start_runs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("certified powers up to" in line for line in lines)
