import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    """The ``## Library`` block runs as written, and each line of it that
    ends in ``# value`` evaluates to that value."""
    text = README.read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M).group(1)
    scope: dict = {}
    exec(block, scope)
    results = [line.split("#", 1) for line in block.splitlines() if "#" in line]
    assert len(results) == 2
    for code, comment in results:
        assert repr(eval(code, scope)) == comment.split(",")[0].strip(), code
