"""``python -m qgames``: the same command line as the ``qgames`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
