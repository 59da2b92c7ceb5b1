"""The README's Library snippet imports names that exist."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_imports_run():
    text = open(README, encoding="utf-8").read()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    imports = [b for b in blocks if "from logchoquard" in b]
    assert len(imports) == 1
    exec(compile(imports[0], "README.md", "exec"), {})
