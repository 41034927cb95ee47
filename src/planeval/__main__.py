"""`python -m planeval`: the command-line interface of `planeval.runner`."""

import sys

from .runner import main

if __name__ == "__main__":
    sys.exit(main())
