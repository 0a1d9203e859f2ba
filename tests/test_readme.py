"""README's examples stay true: its quick-start output and config example."""

import json
from pathlib import Path

from adiaprep.cli import main
from adiaprep.config import config_from_dict, preset_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_blocks(text: str) -> list[tuple[str, str]]:
    """(info string, body) of each fenced code block, in order."""
    blocks, info, body = [], None, []
    for line in text.splitlines():
        if line.startswith("```"):
            if info is None:
                info, body = line[3:], []
            else:
                blocks.append((info, "\n".join(body)))
                info = None
        elif info is not None:
            body.append(line)
    return blocks


def test_readme_quick_start_and_config_example_match_the_program(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    quick_start = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    [headline] = [body for info, body in _code_blocks(quick_start) if info == ""]
    assert main(["run", "--preset", "fig2", "--out", str(tmp_path / "fig2")]) == 0
    assert capsys.readouterr().out.splitlines()[:4] == headline.splitlines()
    [example] = [body for info, body in _code_blocks(text) if info == "json"]
    assert config_from_dict(json.loads(example)) == preset_config("fig2")
