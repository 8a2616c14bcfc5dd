"""`python -m dklab ...`: the same command line as the `dklab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
