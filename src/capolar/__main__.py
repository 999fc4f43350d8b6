"""``python -m capolar``: the ``capolar`` command without an installed script."""

import sys

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    sys.exit(main())
