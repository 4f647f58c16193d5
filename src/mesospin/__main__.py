"""Entry point for ``python -m mesospin <command>``; see mesospin.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
