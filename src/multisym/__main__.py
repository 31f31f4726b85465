"""``python -m multisym``: the same command line as the ``multisym`` script."""

import sys

from .cli import main

sys.exit(main())
