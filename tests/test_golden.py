"""Byte-for-byte pins of the CLI's outputs.

Each entry of ``golden.json`` names a ``crnoma-aoi`` command line, the sha256
of what it prints and its exit code.  The test runs every command through
``cli.main`` in process.  A change that means to move an output re-records
only the digests it moves, and says which and why; a digest that moves in a
change that claims none is a fault of the program.

NumPy does not promise the same ``Generator`` streams across feature
releases, so on a numpy other than the one the table was made with the test
still runs, and a failure names both versions.

Re-record named entries (after checking that they should move) with
``PYTHONPATH=src python tests/test_golden.py NAME ...``.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from crnoma_aoi import cli

TABLE_PATH = Path(__file__).with_name("golden.json")
TABLE = json.loads(TABLE_PATH.read_text())


def _run(argv: list[str]) -> tuple[str, int]:
    """(sha256 of the printed output, exit code) of one command."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("name", TABLE["commands"])
def test_output_pinned(name):
    entry = TABLE["commands"][name]
    digest, code = _run(entry["argv"])
    versions = (f"table made with numpy {TABLE['numpy']}, "
                f"running numpy {np.__version__}")
    assert (digest, code) == (entry["sha256"], entry["exit"]), versions


if __name__ == "__main__":
    for name in sys.argv[1:]:
        entry = TABLE["commands"][name]
        entry["sha256"], entry["exit"] = _run(entry["argv"])
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(entry)}"
                      for name, entry in TABLE["commands"].items())
    TABLE_PATH.write_text(f'{{\n "numpy": "{np.__version__}",\n'
                          f' "commands": {{\n{rows}\n }}\n}}\n')
