"""``python -m wavekit``: the same command line as the ``wavekit`` entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
