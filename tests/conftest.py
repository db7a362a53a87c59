"""Let the interpreters some tests start import the checkout's widim.

``pythonpath = ["src"]`` in pyproject.toml puts ``src/`` on the test
process's own path only; the CLI spot checks run ``python -m widim.cli`` in
a child process, which reads ``PYTHONPATH`` instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
