"""`python -m balloc`: the same command line as the `balloc` script."""

import sys

from .cli import main

sys.exit(main())
