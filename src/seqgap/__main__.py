"""``python -m seqgap``: the command-line interface, for a checkout without an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
