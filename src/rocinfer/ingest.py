"""CSV ingestion for diagnostic studies and prediction grids.

Columns are typed by inference: a column whose retained values all parse
as numbers becomes continuous, anything else becomes categorical with
levels in first-appearance order; a numeric column holding inf, -inf or
a number past the double range is rejected. Group labels and the healthy
tag are compared as text, so a numeric 0/1 label column and --tag 0 line
up. Rows with a missing value in any used column are dropped and counted.
"""

from __future__ import annotations

import csv
import math

from .errors import BadTagError, DataError, MissingColumnError, NonNumericMarkerError
from .sample import Column, DiagnosticSample, PredictionFrame, column_from_values

_MISSING = {"", "NA", "NaN", "nan", "N/A"}


def _read_table(path) -> tuple[list, list]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from None
    except UnicodeDecodeError:
        raise DataError("%s is not UTF-8 encoded text" % path) from None
    rows = [r for r in rows if r]
    if not rows:
        raise DataError("%s has no header row" % path)
    header = [h.strip() for h in rows[0]]
    return header, rows[1:]


def _column_index(header: list, name: str, path) -> int:
    if name not in header:
        raise MissingColumnError("column %r not in %s (header: %s)" % (name, path, ", ".join(header)))
    return header.index(name)


def _cell(row: list, idx: int) -> str:
    return row[idx].strip() if idx < len(row) else ""


def _typed_column(values: list, name: str, path) -> Column:
    try:
        numbers = [float(v) for v in values]
    except ValueError:
        return column_from_values(values)
    bad = next((v for v, x in zip(values, numbers) if not math.isfinite(x)), None)
    if bad is not None:
        raise DataError("column %r in %s has the non-finite value %r" % (name, path, bad))
    return Column(numbers)


def ingest_csv(path, marker: str, group: str, tag, covariates=None) -> DiagnosticSample:
    """Load a study CSV into a DiagnosticSample.

    covariates names the columns to keep alongside the marker; None keeps
    every other column. The healthy tag must occur in the group column.
    """
    header, rows = _read_table(path)
    mk = _column_index(header, marker, path)
    gp = _column_index(header, group, path)
    if covariates is None:
        cov_names = [h for h in header if h not in (marker, group)]
    else:
        cov_names = list(covariates)
    cov_idx = {name: _column_index(header, name, path) for name in cov_names}

    kept_marker: list = []
    kept_group: list = []
    kept_cov: dict = {name: [] for name in cov_names}
    missing = 0
    for row in rows:
        cells = [_cell(row, mk), _cell(row, gp)] + [_cell(row, cov_idx[n]) for n in cov_names]
        if any(c in _MISSING for c in cells):
            missing += 1
            continue
        try:
            kept_marker.append(float(cells[0]))
        except ValueError:
            raise NonNumericMarkerError(
                "marker column %r has non-numeric value %r" % (marker, cells[0])
            ) from None
        kept_group.append(cells[1])
        for name, c in zip(cov_names, cells[2:]):
            kept_cov[name].append(c)

    if rows and not kept_group:
        raise DataError("no row of %s is complete in the used columns (%s): all %d rows were "
                        "dropped for missing values" % (path, ", ".join([marker, group] + cov_names),
                                                         missing))
    tag_text = str(tag)
    if tag_text not in kept_group:
        raise BadTagError("tag %r does not occur in group column %r" % (tag_text, group))
    columns = {name: _typed_column(vals, name, path) for name, vals in kept_cov.items()}
    return DiagnosticSample(
        marker=kept_marker,
        disease=kept_group,
        nondiseased_tag=tag_text,
        covariates=columns,
        missing=missing,
    )


def read_newdata(path) -> PredictionFrame:
    """Load a prediction grid; every column kept, no missing values allowed."""
    header, rows = _read_table(path)
    if not rows:
        raise DataError("%s has a header but no rows" % path)
    cols: dict = {name: [] for name in header}
    for i, row in enumerate(rows):
        for j, name in enumerate(header):
            v = _cell(row, j)
            if v in _MISSING:
                raise DataError("missing value in %s row %d column %r" % (path, i + 1, name))
            cols[name].append(v)
    return PredictionFrame({name: _typed_column(vals, name, path) for name, vals in cols.items()})
