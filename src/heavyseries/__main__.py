"""`python -m heavyseries`: the `heavyseries` command without installing
the package."""

import sys

from .cli import main

sys.exit(main())
