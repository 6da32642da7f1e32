"""``python -m ncdiff``: the same entry point as the ``ncdiff`` command."""

from .cli import run

if __name__ == "__main__":
    run()
