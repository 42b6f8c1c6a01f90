"""``python -m flexautomata``: the same command line as the ``flexautomata`` script."""

from .cli import main

if __name__ == "__main__":
    main()
