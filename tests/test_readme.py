"""The README's library tour runs as shown, so a public name it uses that
is renamed or dropped fails here instead of leaving the docs stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["diagram"].points) == 60
    assert namespace["x"].shape == (101, namespace["net"].n_slots)
