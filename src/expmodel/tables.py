"""CSV tables: the cell format of every table and the dataset table.

Every table is a header row followed by data rows. Float cells are written
with 17 significant digits, so every value round-trips exactly; ints and
strings are written as they are. The columns of the output tables are laid
out by expmodel.cli; this module knows only those of the dataset table.

The dataset table has an optional leading comment
"# seed=<s> sigma=<v> map=<name> prng=<name>", then the header "i,x,y" and
one row per sample in insertion order. A header may name more columns after
"i,x,y"; the reader ignores them, so older files with the clean columns
"x_o,y_o" still load, as do older comments with an unread "n=<n>" field.
Fields are split on commas and are never quoted: a cell is any literal that
Python's float() accepts, so a quoted cell is rejected like any other text
that is not a number. Blank lines are skipped and are not counted as rows.
Under the header "i,x,y" numpy's C tokenizer reads the rows: it rounds as
float() does and rejects every literal float() rejects. A file it rejects, or
one with a longer header, is read row by row with float(), naming the bad row.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from typing import Iterable, Optional, Sequence

import numpy as np

from .density import Dataset
from .errors import InvalidParameter
from .generator import GenerationMeta


# Rows the writers' column_rows holds as Python objects at a time.
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
            fields = dict(item.split("=", 1)
                          for item in first[1:].strip().split() if "=" in item)
            ours = (fields.get("map", GenerationMeta.map_name) == GenerationMeta.map_name
                    and fields.get("prng", GenerationMeta.prng_name) == GenerationMeta.prng_name)
            header_line = fh.readline()
        else:
            header_line = first
        header = [h.strip() for h in header_line.strip().split(",")]
        if header[:3] != ["i", "x", "y"]:
            raise InvalidParameter(f"unrecognized dataset header {header!r} in {path}")
        table, start = None, fh.tell()
        if len(header) == 3:  # usecols checks no row's width past column 2
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a table of no rows
                    table = np.loadtxt(fh, delimiter=",", usecols=(1, 2), comments=None,
                                       ndmin=2, dtype=float)
            except ValueError:  # a bad row, or a literal only float() reads
                fh.seek(start)
        if table is None:
            table = _read_rows(fh, len(header), path)
    try:
        meta = GenerationMeta(seed=int(fields["seed"]),
                              sigma_noise=float(fields["sigma"])) if ours else None
    except (KeyError, ValueError, InvalidParameter):
        meta = None  # unknown comment style; data rows still load
    # Nothing else holds the table, so the dataset takes its columns as views.
    return Dataset._owning(*table.T, meta=meta)


def _read_rows(fh, width: int, path) -> np.ndarray:
    """The (n, 2) x, y table of the rows left in fh, one float() per cell."""
    values = array("d")  # 8 B per cell, read by numpy without a copy
    k = 0
    for line in fh:
        line = line.rstrip("\r\n")
        if not line:
            continue  # a blank line is no row
        k += 1
        row = line.split(",")
        if len(row) < width:
            raise InvalidParameter(f"row {k} of {path} has {len(row)} fields, the header has {width}")
        try:
            values.extend(map(float, row[1:3]))  # columns after x and y are not read
        except ValueError as exc:
            raise InvalidParameter(f"row {k} of {path}: {exc}") from None
    return np.frombuffer(values, dtype=float).reshape(-1, 2)
