"""``python -m bftsim``: the same command line as the ``bftsim`` script."""

import sys

from .cli import main

sys.exit(main())
