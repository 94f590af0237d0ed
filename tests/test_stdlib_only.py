"""The package runs on the standard library alone.

Importing every ``repro`` module, in a fresh interpreter, loads no
top-level module that is neither the standard library's nor ``repro``.
Modules the interpreter loaded before the imports (a site ``.pth`` file
may load some) are left out of the check, and so are new names for them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, pkgutil, sys
before = dict(sys.modules)
old = {id(module) for module in before.values()}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(info.name)
# multiprocessing aliases __main__ as __mp_main__: a new name, no new module
loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if name not in before and id(module) not in old}
print(json.dumps(sorted(loaded)))
"""


def test_importing_every_module_loads_only_the_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "repro" in loaded
    third_party = [name for name in loaded
                   if name != "repro" and name not in sys.stdlib_module_names]
    assert not third_party, f"repro imports {third_party}"
