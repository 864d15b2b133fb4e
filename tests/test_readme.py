"""The README's library example runs as written."""

import pathlib
import re
import warnings

from signed_dpp.errors import AmbiguousSignWarning

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmbiguousSignWarning)
        exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("PASS: 63 minors checked")
