"""Run the command-line tool as ``python -m locturan``; same as the ``locturan`` script."""

import sys

from .cli import main

# The guard keeps a plain import of locturan.__main__ from running the CLI.
if __name__ == "__main__":
    sys.exit(main())
