"""README's Python quick tour runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_tour_runs():
    with open(README) as fh:
        text = fh.read()
    tour = text[text.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md quick tour", "exec"), {})
