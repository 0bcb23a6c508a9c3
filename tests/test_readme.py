"""README's examples run as written.

The "Library quick start" block runs as Python.  Each ``jointgibbs`` example
under "Command line" runs in-process in a temporary directory, after the
heredocs before it have written its config; it must exit 0 and write
``manifest.json`` plus every artifact its paragraph names in backticks.
"""

import re
import shlex
from pathlib import Path

from jointgibbs.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    """The text of README's ``## title`` section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced(text: str, lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.S | re.M)


def test_library_quick_start_runs(capsys):
    (block,) = fenced(section("Library quick start"), "python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("log q = ")


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # one paragraph per command, opened by "**name** —"
    parts = re.split(r"^\*\*([\w-]+)\*\* —", section("Command line"), flags=re.M)
    ran = []
    for command, text in zip(parts[1::2], parts[2::2]):
        prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
        named = sorted(set(re.findall(r"`([\w-]+\.(?:json|csv))`", prose)))
        for block in fenced(text, "sh"):
            for name, body in re.findall(r"^cat > (\S+) <<'JSON'\n(.*?)^JSON$", block, re.S | re.M):
                Path(name).write_text(body)
            for line in re.findall(r"^jointgibbs .*$", block, re.M):
                argv = shlex.split(line)[1:]
                assert argv[0] == command
                assert main(argv) == 0, line
                out = Path(argv[argv.index("--out") + 1])
                assert [n for n in ["manifest.json", *named] if not (out / n).is_file()] == [], line
                ran.append(command)
    capsys.readouterr()
    assert ran == ["check", "potential", "converge", "correlations", "dilute-coeffs"]
