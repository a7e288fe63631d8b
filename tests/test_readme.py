"""The README's minimal example runs against the package as it is, so a
change of the public API fails here rather than going stale in the docs."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README.md should hold one python code block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "__readme__"})
    printed = capsys.readouterr().out
    assert printed.strip(), "the example prints the first posterior means"
