"""Command-line front end: ``geo <op|learn|figure|validate> ...``."""

import sys


def main(argv=None):
    from ._main import run

    return run(sys.argv[1:] if argv is None else argv)
