"""`python -m dmirs ...` runs the command-line interface (see dmirs.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
