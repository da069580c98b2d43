"""The README's samples print what the README says they print."""

import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from savi.harness.cli import main
from savi.zkp.transcript import DOMAIN

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    """The README's fenced code blocks tagged ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def _first_missing(expected, output):
    """The first expected line that is not an output line after the one
    before it matched (surrounding spaces ignored); None if all are."""
    rest = iter(line.strip() for line in output.splitlines())
    for want in expected:
        if want.strip() not in rest:  # consumes ``rest`` up to the match
            return want
    return None


@pytest.mark.parametrize(
    "command", ["savi bench --sweep d=256,1024 --k 16 --comm", "savi params --k 1000"]
)
def test_cli_sample_matches_its_output(command):
    # the sample's command, then its output as comment lines; "..."
    # stands for lines the sample leaves out
    block = next(b for b in _blocks("sh") if b.startswith(command))
    first, *comments = block.splitlines()
    expected = [line.removeprefix("# ") for line in comments if line.strip("# ") != "..."]
    result = CliRunner().invoke(main, first.split()[1:])
    assert result.exit_code == 0, result.output
    assert _first_missing(expected, result.output) is None


def test_library_quick_start_prints_its_comments(capsys):
    # each print's comment, up to a " — ", is the line it prints
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    shown = [
        line.split("# ", 1)[1].split(" — ")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert printed == shown


def test_readme_names_the_transcript_domain_in_use():
    # the messages.log header holds the domain; a bump of the wire format
    # must not leave the README naming the one before it
    named = re.findall(r"transcript\s+domain\s+`(savi/v\d+)`", README.read_text())
    assert named
    assert set(named) == {DOMAIN}
