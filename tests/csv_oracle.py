"""The per-cell CSV writer that cli.write_csv replaced, kept as its byte oracle.

Every cell goes through _format_cell (integers and bools in decimal, floats
as %.11e, None as an empty cell, anything else str()) and every row through
one csv.writer call, so the bytes follow the csv module's own quoting.
"""

import csv

import numpy as np

from maskrd import __version__


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.11e}"
    if value is None:
        return ""  # as csv.writer writes it
    return str(value)


def write_csv(path, columns, rows, config_str: str, seed) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# tool: maskrd {__version__}\n")
        fh.write(f"# config: {config_str}\n")
        fh.write(f"# seed: {seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(c) for c in row])
