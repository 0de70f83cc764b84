"""``python -m colorlab``: the colorlab command."""

import sys

from colorlab.cli import main

if __name__ == "__main__":
    sys.exit(main())
