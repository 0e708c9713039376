"""Compact summaries of program outputs, made where the output is produced
and checked later by the oracles (which need scipy and so run in the
parent process only)."""

from __future__ import annotations

import os


def csv_summary(path: str) -> dict:
    """Header, row count, first and last row, and size of a trajectory CSV."""
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    lines = text.split("\n")
    rows = lines[1:-1] if text.endswith("\n") else lines[1:]
    return {
        "header": lines[0],
        "newlines": text.count("\n"),
        "ends_with_newline": text.endswith("\n"),
        "has_cr": "\r" in text,
        "first": [float(v) for v in rows[0].split(",")] if rows else [],
        "last": [float(v) for v in rows[-1].split(",")] if rows else [],
        "bytes": len(data),
    }


def remove(path: str) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
