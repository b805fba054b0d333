"""``python -m esfl``: the command line without an installed entry point."""

import sys

from .cli import main

sys.exit(main())
