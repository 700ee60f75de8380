"""The README's Python quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run(capsys):
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) >= 2
    namespace = {}
    # The blocks form one session: later ones use names defined earlier.
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(float(x) >= 0.0 for x in printed)
