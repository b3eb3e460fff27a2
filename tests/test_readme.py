"""The README's library quick start runs as written and its comments hold, and its command-line
section runs its example job and documents every flag the parser takes and every input and
option the job loader reads."""

import ast
import re
from pathlib import Path

import numpy as np

from projderiv.cli import INPUTS, OPTIONS, SEQUENCE_INPUTS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_values() -> list:
    """Run the quick-start block statement by statement; the value of each bare expression, in order."""
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_quick_start_comments_hold():
    projected, applied, jacobian, outward, gap, limits, residuals = quick_start_values()
    assert np.array_equal(projected, [1.0, 0.0])
    assert np.array_equal(applied, [0.0, 1.5])
    # P'(x) at x = [2, 0] on the unit ball: the radial part dies, the tangent halves
    assert np.array_equal(jacobian, [[0.0, 0.0], [0.0, 0.5]])
    assert np.array_equal(outward, [0.0, 0.0])
    assert gap == 1.0
    forward, backward = limits
    assert np.array_equal(forward, [0.0, 1.0, 0.0])
    assert np.array_equal(backward, [0.0, 0.0, 0.0])
    assert residuals == (0.5, 2.0 / 3.0)


def command_line_section() -> str:
    return README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]


def table_keys(header: str) -> list[str]:
    """The backticked names in the first column of the table headed `| <header> |`."""
    table = command_line_section().split(f"| {header} |", 1)[1].split("\n\n", 1)[0]
    return [re.fullmatch(r"\| `(\w+)` \|.*", row).group(1) for row in table.splitlines()[2:]]


def example_job(tmp_path) -> str:
    """The section's example job, written to a file; its path."""
    job = tmp_path / "job.json"
    job.write_text(command_line_section().split("```json\n", 1)[1].split("```", 1)[0])
    return str(job)


def test_command_line_example_job_passes(tmp_path, capsys):
    assert main(["--job", example_job(tmp_path)]) == 0
    verdicts = [line.split()[2] for line in capsys.readouterr().out.splitlines() if line.startswith("VERDICT")]
    assert verdicts == ["pass"] * 3


def test_command_line_documents_every_input_and_option():
    assert table_keys("input") == list(INPUTS) == list(SEQUENCE_INPUTS)
    assert table_keys("option") == list(OPTIONS)


def test_command_line_names_exactly_the_parser_flags(capsys):
    assert main(["--help"]) == 0
    flags = set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"}
    assert flags == set(re.findall(r"--\w+", command_line_section())) == {"--job"}


def test_flag_the_parser_does_not_take_exits_2(tmp_path, capsys):
    assert main(["--job", example_job(tmp_path), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --quiet" in captured.err
