"""The README's library example runs as documented."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].all_pass
