"""Run the command line as ``python -m specbar``."""

from .cli import main

if __name__ == "__main__":
    main()
