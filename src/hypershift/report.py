"""Report serialization: canonical JSON, CSV rows, atomic file writes.

Reports are plain dicts.  Exact rationals are rendered as "p/q" strings,
floats with 17 significant digits (enough to round-trip a double), and the
JSON encoding is canonicalized (sorted keys, fixed separators, trailing
newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

SCHEMA_VERSION = 1


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def float_str(x) -> str:
    return f"{float(x):.17g}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never observe a
    partially written report.  The file gets the mode a plain open() would
    give it (0666 less the process umask), not mkstemp's private 0600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    except OSError as exc:
        # Name the requested path, not the random temporary one.
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        # The umask can only be read by setting it; restore it at once.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_csv(header: list[str], rows: list[list]) -> str:
    """Simple CSV: numeric cells formatted at 17 significant digits, other
    cells str()'d; no quoting is ever needed for the values emitted here."""
    out = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, float):
                cells.append(float_str(cell))
            elif isinstance(cell, Fraction):
                cells.append(frac_str(cell))
            else:
                cells.append(str(cell))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
