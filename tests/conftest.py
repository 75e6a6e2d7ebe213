"""Child processes started by the command-line tests inherit this environment,
so it puts the checkout's ``src`` on their ``PYTHONPATH``; ``pyproject.toml``
does the same for the test process itself."""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
