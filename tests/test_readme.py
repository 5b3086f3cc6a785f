"""The README's examples run and give the outcomes its text states."""

import ast
import re
from pathlib import Path

from invariant_states.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _python_block(heading: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_gives_its_commented_outcomes():
    # each line runs in turn; a line whose comment opens with a quoted
    # string is an expression that must evaluate to that string
    namespace, outcomes = {}, []
    for line in _python_block("Quick start").splitlines():
        code, _, comment = line.partition("#")
        stated = re.match(r"\s*('[^']*')", comment)
        if stated:
            outcomes.append((eval(code.strip(), namespace), ast.literal_eval(stated[1])))
        else:
            exec(code, namespace)
    assert [want for _, want in outcomes] == ["satisfied", "violated"]
    assert all(got == want for got, want in outcomes)


def test_verdict_json_example_is_what_check_prints(tmp_path, capsys):
    # the README's descriptor example is the point its verdict example is for
    descriptor = re.search(r'`(\{"version":1,"d":2,"K":2,[^`]*\})`', README)[1]
    verdict = re.search(r'`(\{"criterion":"ppt:11",[^`]*\})`', README)[1]
    path = tmp_path / "q.json"
    path.write_text(descriptor)
    assert main(["check", "--in", str(path), "--criterion", "ppt:11"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (verdict + "\n", "")
