"""Dict serialization shared by the result records, and the rows of tables.

A table holds its rows as columns: one instance of a frozen dataclass whose
fields are arrays with one entry per row (``columns``).  A class's checks are
one method, ``_validate(rows)``, which hands each failing row its error to
``rows.check``: ``Rows`` keeps each row's first error and lets the table go
on, and ``RAISE``, which ``__post_init__`` passes, raises at once.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class Record:
    """Mixin for result dataclasses: ``to_dict`` maps each field, in field
    order, to its value, with numpy arrays as (nested) lists of floats."""

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in dataclasses.asdict(self).items()}


def item(x, k: int):
    """Row k of a column as a Python number, or x itself when it is one number.
    Messages are formatted from these: numpy 2 writes repr(np.float64(7.5)) as
    np.float64(7.5)."""
    return x.item(k) if isinstance(x, (np.ndarray, np.generic)) else x


class Raise:
    """Checks that raise the first failing row's error at once, so no row has one."""

    @staticmethod
    def clean() -> bool:
        return True

    @staticmethod
    def check(ok, error) -> None:
        if ok is not True and np.count_nonzero(ok) < np.size(ok):
            raise error(int(np.flatnonzero(np.logical_not(ok))[0]))


RAISE = Raise()


class Rows:
    """Each row's first error, None while it has none, for a table of n rows."""

    def __init__(self, n: int, errors=None):
        self.errors = [None] * n if errors is None else list(errors)

    def __len__(self) -> int:
        return len(self.errors)

    def check(self, ok, error) -> None:
        """Give each row where the column ``ok`` does not hold, and that has no
        error yet, the exception error(k)."""
        if np.count_nonzero(ok) == len(self):
            return
        for k in np.flatnonzero(np.logical_not(np.broadcast_to(ok, (len(self),)))):
            if self.errors[k] is None:
                self.errors[k] = error(int(k))

    def clean(self) -> np.ndarray:
        """Mask of the rows that have no error."""
        return np.array([e is None for e in self.errors], dtype=bool)


def columns(cls, rows=None, **fields):
    """An instance of the frozen dataclass ``cls`` whose fields are the given
    columns, made without ``__init__``; with ``rows``, checked into them."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    if rows is not None:
        out._validate(rows)
    return out


def take(obj, index):
    """The rows ``index`` of a table instance (a field that is one number stays)."""
    return columns(type(obj), **{
        f.name: v[index] if isinstance(v := getattr(obj, f.name), np.ndarray) else v
        for f in dataclasses.fields(obj)})


def row(obj, k: int):
    """Row k of a table instance as an ordinary instance of its class."""
    return type(obj)(**{f.name: item(getattr(obj, f.name), k) for f in dataclasses.fields(obj)})
