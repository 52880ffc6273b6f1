import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_prints_its_documented_line(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    # the block ends with the line it prints, as a comment
    documented = block.rstrip("\n").rsplit("\n", 1)[1]
    assert documented.startswith("# ")
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == documented[2:] + "\n"
