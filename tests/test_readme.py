"""The README's ```pycon examples run as doctests, so they cannot drift."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_pycon_blocks_pass():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```pycon\n(.*?)^```", text, re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    for k, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md pycon block {k}", str(README), 0)
        runner.run(test, out=report.append)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0
    assert failed == 0, "".join(report)
