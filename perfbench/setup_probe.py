"""Set-up cost of one CLI call: import ``hypershift.cli`` and build every
weight file given on the command line with ``weights.weight_from_dict``,
doing no computation.

    python3 perfbench/setup_probe.py WEIGHT.json [WEIGHT.json ...]
"""

import json
import sys

import hypershift.cli  # noqa: F401  (the import is what is measured)
from hypershift.weights import weight_from_dict

for path in sys.argv[1:]:
    with open(path) as fh:
        weight_from_dict(json.load(fh))
