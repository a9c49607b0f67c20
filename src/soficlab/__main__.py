"""Run the command line front end as ``python -m soficlab``."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
