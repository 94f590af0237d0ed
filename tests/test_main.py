"""``python -m repro`` as a shell pipeline stage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [["resil", "list"], ["backends", "list"]],
                         ids=" ".join)
def test_listing_into_a_closed_pipe_exits_without_a_traceback(argv):
    # `python -m repro resil list | head -1`, with the reader already
    # gone by the time the listing is written, so no run races it.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1
