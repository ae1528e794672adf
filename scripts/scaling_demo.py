#!/usr/bin/env python3
"""Dilate a corner candidate, compress it back, and print the certificates.

    python3 scripts/scaling_demo.py
    python3 scripts/scaling_demo.py --d 40 --delta 1/20 --seed 3
"""

import sys

from soficdim.cli import main

if __name__ == "__main__":
    # argparse keeps the last value of a repeated option, so the caller's
    # --d overrides this default
    sys.exit(main(["construct", "--what", "restrict", "--d", "30"] + sys.argv[1:]))
