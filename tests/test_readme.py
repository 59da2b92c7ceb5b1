"""The README's Library snippet imports names that exist, and its Config
table lists the CLI's keys and defaults."""

import os
import re

from logchoquard.cli import _DEFAULTS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme():
    return open(README, encoding="utf-8").read()


def test_readme_library_imports_run():
    blocks = re.findall(r"```python\n(.*?)```", _readme(), flags=re.S)
    imports = [b for b in blocks if "from logchoquard" in b]
    assert len(imports) == 1
    exec(compile(imports[0], "README.md", "exec"), {})


def test_readme_config_table_matches_defaults():
    section = _readme().split("## Config files", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` *\| `([^`]+)` *\|", section, flags=re.M)
    assert rows == list(_DEFAULTS.items())
