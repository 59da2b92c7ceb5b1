"""The README's Library snippet imports names that exist, its Config table
lists the CLI's keys and defaults, its symmetry specs parse, its check
count is the battery's, its trace.csv columns are the descent's and its
field-dump magic is the one save_field writes."""

import os
import re

import numpy as np

from logchoquard import Grid, make_kernel_table
from logchoquard.checks import battery
from logchoquard.cli import _DEFAULTS, parse_config
from logchoquard.field import MAGIC
from logchoquard.solver import TRACE_COLUMNS

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


def test_readme_symmetry_specs_parse():
    section = _readme().split("Symmetry specs", 1)[1].split("\n## ", 1)[0]
    specs = re.findall(r"^- `([^`]+)`", section, flags=re.M)
    assert "trivial" in specs and "glide:shift" in specs
    fill = {"m": "2", "shift": "1", "b1x,b1y;b2x,b2y": "1,0;0,1"}
    for spec in specs:
        kind, _, rest = spec.partition(":")
        filled = kind + (":" + fill[rest] if rest else "")
        parse_config("symmetry = %s\n" % filled)  # ConfigError on a stale spec


def test_readme_check_count_matches_battery():
    (count,) = re.findall(r"(\d+) fast invariant checks", _readme())
    grid = Grid(L=6.0, n=32)
    checks = battery(grid, make_kernel_table(grid), np.random.default_rng(0))
    assert int(count) == sum(len(names) for names, _ in checks)


def test_readme_trace_columns_match_the_descent():
    (line,) = re.findall(r"^`(iter,[^`]*)`", _readme(), flags=re.M)
    assert line == ",".join(TRACE_COLUMNS)


def test_readme_dump_magic_is_the_written_magic():
    readme = _readme()
    (magic,) = re.findall(r"magic bytes `([^`]+)`", readme)
    (file_spec,) = re.findall(r"^- `file:path.chq` — .* from a (\w+) dump", readme, flags=re.M)
    assert magic.encode("ascii") == MAGIC
    assert file_spec.encode("ascii") == MAGIC
