"""``python -m magbloch``: the command-line interface of :mod:`magbloch.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
