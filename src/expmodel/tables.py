"""CSV tables: the cell format of every table and the dataset table.

Every table is a header row followed by data rows. Float cells are written
with 17 significant digits, so every value round-trips exactly; ints and
strings are written as they are. The columns of the output tables are laid
out by expmodel.cli; this module knows only those of the dataset table.

The dataset table has an optional leading comment
"# seed=<s> sigma=<v> map=<name> prng=<name>", then the header "i,x,y" and
one row per sample in insertion order. A header may name more columns after
"i,x,y"; the reader ignores them, so older files with the clean columns
"x_o,y_o" still load. The comment records no row count: older comments with
an "n=<n>" field still load, and it is not read.
Its fields are split on commas and are never quoted: a cell is any literal
that Python's float() accepts, so a quoted cell is rejected like any other
text that is not a number. Blank lines are skipped and are not counted as rows.
"""

from __future__ import annotations

import csv
from array import array
from typing import Iterable, Optional, Sequence

import numpy as np

from .density import Dataset
from .errors import InvalidParameter
from .generator import GenerationMeta


# Rows held as Python objects at a time, by the writers' column_rows and by
# the reader, whose cell strings (about 110 B per cell) are all it holds
# beyond its table of 8 B per value.
ROW_BLOCK = 128


def _cell(v):
    return format(v, ".17g") if isinstance(v, float) else v


def write_table(path, header: Sequence[str], rows: Iterable[Sequence],
                comment: Optional[str] = None) -> None:
    """Write header and rows to path, streaming the rows; comment goes first as '# ...'."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def column_rows(*columns):
    """Rows of equal-length numpy columns, converted ROW_BLOCK rows at a time."""
    for lo in range(0, len(columns[0]), ROW_BLOCK):
        yield from zip(*(c[lo:lo + ROW_BLOCK].tolist() for c in columns))


def write_dataset_csv(dataset: Dataset, path) -> None:
    meta = dataset.meta
    comment = None
    if meta is not None:
        comment = (f"seed={meta.seed} sigma={float(meta.sigma_noise)!r} "
                   f"map={meta.map_name} prng={meta.prng_name}")
    rows = ((i, *row) for i, row in enumerate(column_rows(dataset.x, dataset.y), start=1))
    write_table(path, ["i", "x", "y"], rows, comment)


def read_dataset_csv(path) -> Dataset:
    try:
        return _parse_dataset_csv(path)
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not a text file: {exc}") from None


def _parse_dataset_csv(path) -> Dataset:
    ours = False  # a comment naming this map and PRNG
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            fields = dict(
                item.split("=", 1) for item in first[1:].strip().split() if "=" in item
            )
            ours = (fields.get("map", GenerationMeta.map_name) == GenerationMeta.map_name
                    and fields.get("prng", GenerationMeta.prng_name) == GenerationMeta.prng_name)
            header_line = fh.readline()
        else:
            header_line = first
        header = [h.strip() for h in header_line.strip().split(",")]
        if header[:3] != ["i", "x", "y"]:
            raise InvalidParameter(f"unrecognized dataset header {header!r} in {path}")
        values = array("d")  # 8 B per cell, read by numpy without a copy
        cells: list[str] = []
        k = 0
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue  # a blank line is no row
            k += 1
            row = line.split(",")
            if len(row) < len(header):
                # Earlier rows of the block first, so the first bad row is named.
                _append_cells(values, cells, path)
                raise InvalidParameter(
                    f"row {k} of {path} has {len(row)} fields, the header has {len(header)}"
                )
            cells += row[1:3]  # x and y; columns after them are not read
            if len(cells) == ROW_BLOCK * 2:
                _append_cells(values, cells, path)
                cells = []
        _append_cells(values, cells, path)
    # Nothing else holds the table, so the dataset takes its columns as views.
    table = np.frombuffer(values, dtype=float).reshape(-1, 2)
    try:
        meta = GenerationMeta(seed=int(fields["seed"]),
                              sigma_noise=float(fields["sigma"])) if ours else None
    except (KeyError, ValueError, InvalidParameter):
        meta = None  # unknown comment style; data rows still load
    return Dataset._owning(*table.T, meta=meta)


def _append_cells(values: array, cells: list, path) -> None:
    """Append the float values of cells, an x and a y per row, to the table values."""
    try:
        values.extend(map(float, cells))
    except ValueError as exc:
        # The cells before the bad one are in the table, so it names its row.
        raise InvalidParameter(f"row {len(values) // 2 + 1} of {path}: {exc}") from None
