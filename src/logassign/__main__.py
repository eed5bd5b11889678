"""Entry point for ``python -m logassign``."""

from .cli import main

if __name__ == "__main__":
    main()
