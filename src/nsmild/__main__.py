"""`python -m nsmild`: the command-line interface, exiting with its code."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
