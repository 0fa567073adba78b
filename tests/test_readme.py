import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_tour_runs(capsys):
    # the first python block of the README, run as written
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(tour, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
