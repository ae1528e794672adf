#!/usr/bin/env python3
"""Dilate a corner candidate, compress it back, and print the certificates.

    python3 scripts/scaling_demo.py
    python3 scripts/scaling_demo.py --d 40 --delta 1/20 --seed 3
"""

import sys

from soficdim.cli import main

if __name__ == "__main__":
    argv = sys.argv[1:]
    if not any(a == "--d" or a.startswith("--d=") for a in argv):
        argv += ["--d", "30"]
    sys.exit(main(["construct", "--what", "restrict"] + argv))
