"""README's "Library use" example, run as written."""

import re
from pathlib import Path

from blockginv import cli
from blockginv.ginverse import drazin
from conftest import mat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_computes_example_35():
    source = re.search(r"```python\n(.*?)```", README.read_text("utf-8"),
                       re.DOTALL).group(1)
    names = {}
    exec(source, names)
    assert names["result"].theorem == "thm3.1"
    assert names["e"] == mat(cli._EXAMPLE_E)
    assert names["f"] == mat(cli._EXAMPLE_F)
    assert names["result"].assembled == mat(cli._EXAMPLE_ASSEMBLED)
    assert drazin(names["e"]).index == 0
