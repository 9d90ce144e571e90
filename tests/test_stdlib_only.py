"""The runtime imports nothing outside the standard library.

A fresh interpreter imports ``repro.cli`` and every ``repro.*`` module;
each top-level module those imports load must be a standard-library
module or ``repro`` itself.  Modules the interpreter had loaded before
(``.pth`` hooks of the site directory) are not counted.  Third-party
packages stay test-only.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PROBE = """
import sys
before = set(sys.modules)
import json, pkgutil
import repro, repro.cli
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":  # runs the CLI on import
        __import__(info.name)
main = sys.modules["__main__"]
print(json.dumps(sorted({  # multiprocessing aliases __main__ as __mp_main__
    name.split(".")[0] for name, module in sys.modules.items()
    if name not in before and module is not main})))
"""


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names needs Python 3.10")
def test_repro_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    loaded = json.loads(proc.stdout)
    assert "repro" in loaded
    foreign = [name for name in loaded
               if name != "repro" and name not in sys.stdlib_module_names]
    assert foreign == []
