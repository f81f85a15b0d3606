"""python -m beamspec: the beamspec command line."""

from .cli import main

main()
