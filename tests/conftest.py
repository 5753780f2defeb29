"""Make the CLI subprocesses of the tests import the package the tests import.

``pythonpath`` in pyproject.toml puts ``src`` on this process's path only;
exporting it here lets ``python -m hypertoric`` find it without an install.
"""

import os
from pathlib import Path

import hypertoric

_SRC = str(Path(hypertoric.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
