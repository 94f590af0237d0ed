"""``argparse`` ``type=`` validators shared by every command line.

A bad numeric flag is a usage error (exit 2, one line naming the flag)
at parse time, not a traceback or a silently ignored value mid-run.
This module imports nothing heavy, so a command that never shards (the
serve front end) does not pay for ``multiprocessing`` at start-up.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable


def int_at_least(lo: int) -> Callable[[str], int]:
    """``argparse`` ``type=`` for an integer ``>= lo``: a bad value is a
    usage error (exit 2) at parse time, not a vacuous pass or a
    ``ValueError`` traceback mid-run."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lo} (got {raw!r})") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo} (got {value})")
        return value

    return parse


def positive_float(raw: str) -> float:
    """``argparse`` ``type=`` for a finite number ``> 0``."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number > 0 (got {raw!r})") from None
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be > 0 and finite (got {raw})")
    return value


#: ``type=`` of every ``--workers`` option (0 = one worker per CPU)
workers_arg = int_at_least(0)
