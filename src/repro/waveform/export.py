"""Waveform CSV import/export.

A minimal, dependency-free interchange format so results can leave the
library (plotting, regression diffs, spreadsheet inspection): first column
is time, one column per trace, header row with trace names. Values are
written with ``repr``-level precision so a round trip is lossless.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from repro.errors import SimulationError
from repro.waveform.waveform import WaveformSet

#: Rows formatted per ``repr`` call by :func:`write_csv`.
_CHUNK_ROWS = 16


def write_csv(waveforms: WaveformSet, target, signals: list[str] | None = None) -> None:
    """Write *waveforms* as CSV to *target* (path or text file object).

    Args:
        signals: subset of trace names to export (default: all, sorted).
    """
    names = signals if signals is not None else sorted(waveforms.names)
    for name in names:
        if name not in waveforms:
            raise SimulationError(f"cannot export unknown trace {name!r}")
    table = np.column_stack([waveforms.times] + [waveforms[name].values for name in names])
    if np.iscomplexobj(table):
        raise TypeError("cannot export complex waveform values as CSV")
    table = table.astype(float, copy=False)

    def write_to(handle) -> None:
        csv.writer(handle).writerow(["time"] + names)
        # ``repr`` of a list of lists spells every float exactly as
        # ``repr(float)`` does, so one C-level call per chunk formats the
        # rows the csv module would write; chunking bounds the transient
        # string to a few rows instead of the whole table.
        for start in range(0, len(table), _CHUNK_ROWS):
            rows = repr(table[start:start + _CHUNK_ROWS].tolist())[2:-2]
            handle.write(rows.replace("], [", "\r\n").replace(", ", ",") + "\r\n")

    if hasattr(target, "write"):
        write_to(target)
    else:
        with open(target, "w", newline="", encoding="utf-8") as handle:
            write_to(handle)


def read_csv(source) -> WaveformSet:
    """Read a CSV written by :func:`write_csv` back into a WaveformSet."""

    def read_from(handle) -> WaveformSet:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SimulationError("waveform CSV is empty") from None
        if not header or header[0] != "time":
            raise SimulationError("waveform CSV must start with a 'time' column")
        names = header[1:]
        rows = [row for row in reader if row]
        if not rows:
            raise SimulationError("waveform CSV has no data rows")
        data = np.array([[float(cell) for cell in row] for row in rows])
        if data.shape[1] != len(names) + 1:
            raise SimulationError("waveform CSV row width does not match header")
        return WaveformSet(
            data[:, 0], {name: data[:, i + 1] for i, name in enumerate(names)}
        )

    if hasattr(source, "read"):
        return read_from(source)
    with open(source, "r", newline="", encoding="utf-8") as handle:
        return read_from(handle)


def to_csv_text(waveforms: WaveformSet, signals: list[str] | None = None) -> str:
    """CSV content as a string (convenience for tests and small exports)."""
    buffer = io.StringIO()
    write_csv(waveforms, buffer, signals)
    return buffer.getvalue()
