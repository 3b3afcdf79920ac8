"""``python -m repro program.rkt`` runs a ``#lang`` module file;
``python -m repro --repl [language]`` starts a REPL (see ``repro.tools.runner``)."""

import sys

from repro.tools.runner import main

sys.exit(main())
