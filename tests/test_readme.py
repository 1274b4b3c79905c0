"""The README's quick start and tool-surface commands run as written."""
import re
import shlex
from pathlib import Path

from koopext.cli import main

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


def tool_surface_commands() -> list[list[str]]:
    text = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", text, re.S).group(1)
    lines = block.split("# tool surface\n", 1)[1].splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


def test_tool_surface_commands_run_in_order(tmp_path, monkeypatch):
    commands = tool_surface_commands()
    assert [c[1] for c in commands] == ["simulate", "fit", "eig", "extend", "phase"]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert command[0] == "koopext"
        assert main(command[1:]) == 0, " ".join(command)
