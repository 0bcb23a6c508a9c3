"""README's examples run as written, and its config reference is complete.

The "Library quick start" block runs as Python.  Each ``jointgibbs`` example
under "Command line" runs in-process in a temporary directory, after the
heredocs before it have written its config; it must exit 0 and write
``manifest.json`` plus every artifact its paragraph names in backticks.
Every config key that ``cli.py`` or ``load_model`` reads is named in code
under "Config fields".
"""

import ast
import re
import shlex
from pathlib import Path

from jointgibbs.cli import main

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()


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


def config_keys(source: str) -> set:
    """The string keys ``source`` reads from a config: a mapping named ``cfg``
    or ``*_cfg``, read by subscript, ``.get``, ``in`` or ``_field``."""

    def is_cfg(node):
        return isinstance(node, ast.Name) and (node.id == "cfg" or node.id.endswith("_cfg"))

    keys = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and is_cfg(node.value):
            keys.append(node.slice)
        elif isinstance(node, ast.Compare) and is_cfg(node.comparators[0]):
            keys.append(node.left)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" and is_cfg(func.value):
                keys.append(node.args[0])
            elif isinstance(func, ast.Name) and func.id == "_field" and is_cfg(node.args[0]):
                keys.append(node.args[1])
    return {k.value for k in keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def test_config_keys_scan_sees_nested_and_model_fields():
    source = (
        'def f(cfg, spec_cfg):\n    a = cfg.get("a", 1) + cfg["b"]\n'
        '    if "c" in spec_cfg and "d" not in cfg:\n        _field(cfg, "e", 0, int)\n'
        '    emit(cfg, "command")\n    return other["f"]\n'
    )
    assert config_keys(source) == {"a", "b", "c", "d", "e"}


def test_readme_names_every_config_key_the_cli_reads():
    package = REPO / "src" / "jointgibbs"
    keys = config_keys((package / "cli.py").read_text())
    keys |= config_keys((package / "model.py").read_text())
    assert {"version", "bc", "alpha", "fill", "eta_fill", "nu", "weights"} <= keys
    code = re.findall(r"`([^`\n]+)`", section("Config fields"))
    named = set(re.findall(r"\w+", " ".join(code)))
    assert sorted(keys - named) == []
