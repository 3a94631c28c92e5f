"""Exact-length reads from binary files: a field that runs past the end of
the file raises the reader's typed error naming the field, before anything
is allocated for it."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np


class ExactReader:
    def __init__(self, fh, path: str | Path, error: type[Exception]):
        self.fh = fh
        self.path = path
        self.error = error
        self.left = os.fstat(fh.fileno()).st_size

    def fail(self, message: str) -> Exception:
        return self.error(f"{self.path}: {message}")

    def read(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise self.fail(f"truncated in {what}: need {n} bytes, {self.left} left")
        data = self.fh.read(n)
        if len(data) != n:
            raise self.fail(f"truncated in {what}")
        self.left -= n
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def array(self, count: int, dtype, what: str) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.read(count * dtype.itemsize, what), dtype=dtype)

    def expect_end(self, what: str) -> None:
        if self.left:
            raise self.fail(f"{self.left} bytes after {what}")
