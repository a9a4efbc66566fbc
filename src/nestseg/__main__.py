"""``python -m nestseg``: the command line."""
from .cli import main

raise SystemExit(main())
