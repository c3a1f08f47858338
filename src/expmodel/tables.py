"""CSV tables: the one place the package reads and writes them.

Every table is a header row followed by data rows. Float cells are written
with 17 significant digits, so every value round-trips exactly; ints and
strings are written as they are.

The dataset table has an optional leading comment
"# seed=<s> sigma=<v> map=<name> prng=<name> n=<n>", then the header
"i,x,y" or "i,x,y,x_o,y_o" and one row per sample in insertion order.
"""

from __future__ import annotations

import csv
from array import array
from typing import Iterable, Optional, Sequence

import numpy as np

from .density import Dataset
from .errors import InvalidParameter
from .generator import GenerationMeta


# Rows converted to Python values at a time: about 32 B per cell live at once.
ROW_BLOCK = 1024


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
                   f"map={meta.map_name} prng={meta.prng_name} n={len(dataset)}")
    header = ["i", "x", "y"]
    columns = [dataset.x, dataset.y]
    if dataset.has_clean:
        header += ["x_o", "y_o"]
        columns += [dataset.x_clean, dataset.y_clean]
    rows = ((i, *row) for i, row in enumerate(column_rows(*columns), start=1))
    write_table(path, header, rows, comment)


def read_dataset_csv(path) -> Dataset:
    try:
        return _parse_dataset_csv(path)
    except UnicodeDecodeError as exc:
        raise InvalidParameter(f"{path} is not a text file: {exc}") from None


def _parse_dataset_csv(path) -> Dataset:
    meta: Optional[GenerationMeta] = None
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            fields = dict(
                item.split("=", 1) for item in first[1:].strip().split() if "=" in item
            )
            ours = (fields.get("map", GenerationMeta.map_name) == GenerationMeta.map_name
                    and fields.get("prng", GenerationMeta.prng_name) == GenerationMeta.prng_name)
            try:
                meta = GenerationMeta(
                    seed=int(fields["seed"]),
                    sigma_noise=float(fields["sigma"]),
                    n=int(fields["n"]),
                ) if ours else None
            except (KeyError, ValueError, InvalidParameter):
                meta = None  # unknown comment style; data rows still load
            header_line = fh.readline()
        else:
            header_line = first
        header = [h.strip() for h in header_line.strip().split(",")]
        if header[:3] != ["i", "x", "y"]:
            raise InvalidParameter(f"unrecognized dataset header {header!r} in {path}")
        with_clean = header == ["i", "x", "y", "x_o", "y_o"]
        columns = [1, 2, 3, 4] if with_clean else [1, 2]
        values = array("d")  # 8 B per cell, read by numpy without a copy
        for k, row in enumerate(filter(None, csv.reader(fh)), start=1):
            if len(row) < len(header):
                raise InvalidParameter(
                    f"row {k} of {path} has {len(row)} fields, the header has {len(header)}"
                )
            try:
                values.extend([float(row[c]) for c in columns])
            except ValueError as exc:
                raise InvalidParameter(f"row {k} of {path}: {exc}") from None
    # Nothing else holds the table, so the dataset takes its columns as views.
    table = np.frombuffer(values, dtype=float).reshape(-1, len(columns))
    return Dataset._owning(*table.T, meta=meta)
