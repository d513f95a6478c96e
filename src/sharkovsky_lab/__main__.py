"""``python -m sharkovsky_lab``: the command-line interface."""

from .cli import main

main()
