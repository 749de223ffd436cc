"""Golden datasets: scaled-down versions of the six README commands.

The files in tests/golden/ were written by the per-row CSV writer and the
per-q band loop that the column-array writer and the batched band grid
replaced.  `python tests/test_golden.py` reruns the commands from the
code on the path and lists the files that differ (exit 1 if any do);
only `--write` rewrites them.  Each test reruns one command and compares
its output with the stored file.  Evolve, diffusion and the
gate/prepare/cnot reports must match byte for byte.  The band tables come from an eigensolver whose
round-off may move the last digit, so their head lines and JSON metadata
match byte for byte and their numbers to 1e-12.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from freqwalk import cli

GOLDEN = Path(__file__).parent / "golden"
VERSION = "golden"  # stands in for the installed package version
CSV_HEAD_LINES = 3  # "# tool=...", "# config=...", column header
BAND_ATOL = 1e-12

_BAND = ["band", "--gamma", "3pi", "--theta=-0.5pi", "--phi-h", "0",
         "--phi-v", "0.75pi", "--n-k", "64"]
_DIFFUSION = ["diffusion", "--gamma", "0.06pi,1pi,3pi", "--steps", "12",
              "--half-width", "160"]
_EVOLVE = ["evolve", "--gamma", "3pi", "--steps", "6", "--half-width", "80"]
_JSON = ["--format", "json"]

COMMANDS = {
    "band.csv": _BAND,
    "band.json": _BAND + _JSON,
    "diffusion.csv": _DIFFUSION,
    "diffusion.json": _DIFFUSION + _JSON,
    "evolve.csv": _EVOLVE,
    "evolve.json": _EVOLVE + _JSON,
    "evolve_direct.csv": _EVOLVE + ["--engine", "direct"],
    "h_gate.json": ["gate", "--gate-name", "H", "--delta", "20"],
    "prep.json": ["prepare", "--phi1", "0.75pi", "--phi2", "0.25pi", "--delta", "20"],
    "cnot.json": ["cnot", "--delta", "20"],
}


def _band_csv_equal(got: str, ref: str) -> None:
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    assert got_lines[:CSV_HEAD_LINES] == ref_lines[:CSV_HEAD_LINES]
    assert len(got_lines) == len(ref_lines)
    parse = lambda lines: np.array(
        [[float(c) for c in line.split(",")] for line in lines[CSV_HEAD_LINES:]]
    )
    np.testing.assert_allclose(parse(got_lines), parse(ref_lines), rtol=0, atol=BAND_ATOL)


def _band_json_equal(got: str, ref: str) -> None:
    got_doc, ref_doc = json.loads(got), json.loads(ref)
    assert got_doc.keys() == ref_doc.keys()
    assert got_doc["metadata"] == ref_doc["metadata"]
    assert got_doc["columns"] == ref_doc["columns"]
    np.testing.assert_allclose(
        np.array(got_doc["rows"]), np.array(ref_doc["rows"]), rtol=0, atol=BAND_ATOL
    )


ROUND_OFF = {"band.csv": _band_csv_equal, "band.json": _band_json_equal}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_VERSION", VERSION)
    out = tmp_path / name
    assert cli.main(COMMANDS[name] + ["--out", str(out)]) == 0
    ref = GOLDEN / name
    compare = ROUND_OFF.get(name)
    if compare is None:
        assert out.read_bytes() == ref.read_bytes()
    else:
        compare(out.read_text(), ref.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_out_file(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli.main(COMMANDS[name] + ["--out", str(out)]) == 0
    assert cli.main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_script_compares_unless_told_to_write(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_VERSION", cli._VERSION)  # main() sets it
    golden = tmp_path / "golden"
    golden.mkdir()
    for name in COMMANDS:
        (golden / name).write_bytes((GOLDEN / name).read_bytes())
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    stale = golden / "evolve.csv"
    fresh = stale.read_bytes()
    edited = fresh.replace(b"\n0,-80,", b"\n1,-80,", 1)
    stale.write_bytes(edited)
    assert main([]) == 1
    assert capsys.readouterr().out == "differs: evolve.csv\n"
    assert stale.read_bytes() == edited
    assert main(["--write"]) == 0
    assert stale.read_bytes() == fresh
    assert main([]) == 0


def _same(name: str, out: Path) -> bool:
    """Whether `out` matches the golden file `name` as test_golden_output
    compares them."""
    ref = GOLDEN / name
    if not ref.exists():
        return False
    compare = ROUND_OFF.get(name)
    if compare is None:
        return out.read_bytes() == ref.read_bytes()
    try:
        compare(out.read_text(), ref.read_text())
    except AssertionError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    """Rerun every command; list the golden files that differ and return 1
    if any do, or with --write rewrite them all and return 0."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--write", action="store_true",
                        help="rewrite tests/golden/ from the code on the path")
    write = parser.parse_args(argv).write
    cli._VERSION = VERSION
    if write:
        GOLDEN.mkdir(exist_ok=True)
    differ = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, command in COMMANDS.items():
            out = GOLDEN / name if write else Path(scratch) / name
            if cli.main(command + ["--out", str(out)]) != 0:
                sys.exit(f"{name}: command failed")
            if not write and not _same(name, out):
                differ.append(name)
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
