"""Entry point for ``python -m zonorec``."""

import sys

from .cli import main

sys.exit(main())
