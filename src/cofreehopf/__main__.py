"""``python -m cofreehopf``: the same command line as the ``cofreehopf`` script."""

from .cli import entry

entry()
