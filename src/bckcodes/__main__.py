"""`python -m bckcodes` runs the command line interface."""

from .cli import console_main

console_main()
