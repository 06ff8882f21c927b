"""Report serialization: canonical JSON, CSV rows, atomic file writes.

Reports are plain dicts whose values may be result objects' own fields.
``canonical_json`` holds the one rule for writing them: a ``Fraction`` is a
"p/q" string written in full at any length, any other number that converts
with ``complex()`` (a Python complex, a working-precision Decimal or
DecimalComplex, an mpmath mpf or mpc) is an [re, im] pair of floats, a tuple
is a list, a float is its shortest round-trip repr, and any other type is
refused.  The encoding is canonicalized (sorted keys, fixed separators,
trailing newline) so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from decimal import Decimal
from fractions import Fraction
from typing import Iterable

SCHEMA_VERSION = 1


def frac_str(x: Fraction) -> str:
    """"p/q" in full: ``Decimal`` writes an int of any length exactly, where
    ``str`` refuses one past the interpreter's digit limit."""
    x = Fraction(x)
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def float_str(x) -> str:
    return f"{float(x):.17g}"


def _encode(obj):
    """The report value of an object json cannot write itself.

    Numbers are recognised by their ``__complex__`` method, so this module
    imports no numeric library.
    """
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if hasattr(type(obj), "__complex__"):
        z = complex(obj)
        # + 0.0 writes a negative zero as 0.0.
        return [z.real + 0.0, z.imag + 0.0]
    raise TypeError(f"{type(obj).__name__} is not a report value")


def canonical_json(obj) -> str:
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_encode)
        + "\n"
    )


def pick(obj, *names: str) -> dict:
    """The named attributes of a result object, as a report block."""
    return {name: getattr(obj, name) for name in names}


def write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never observe a
    partially written report.  The file gets the mode a plain open() would
    give it (0666 less the process umask), not mkstemp's private 0600."""
    import tempfile  # it loads shutil and random: import only to write a file

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


def render_csv(header: list[str], rows: Iterable[list]) -> str:
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
