#!/usr/bin/env python3
"""Closed-form statistic of exact order-2 candidates against the degree.

The count of fixed-point-free involutions grows like (d-1)!!, so the
statistic log(count)/(d log d) climbs toward 1/2; this prints the curve
for a list of degrees.

    python3 scripts/involution_curve.py
    python3 scripts/involution_curve.py --d 50..1000..50 --m 4 --delta 1/100
"""

import sys

from soficdim.cli import main

if __name__ == "__main__":
    # argparse keeps the last value of a repeated option, so the caller's
    # --m and --d override these defaults
    sys.exit(main(["curve", "--m", "2", "--d", "50,100,200,400,800"] + sys.argv[1:]))
