"""Run plumbing: deterministic CSV/JSON writers and the environment record."""

from __future__ import annotations

import csv
import json
import os
import platform
import sys
from typing import Iterable, Sequence

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()  # the Python number a numpy scalar holds
    if isinstance(value, float):
        return repr(value)  # shortest round-trip form, bit-reproducible
    if isinstance(value, (list, tuple)):
        return " ".join(_format_cell(v) for v in value)
    return str(value)


# cells that csv.writer writes as _format_cell would: it writes str(x), and
# str(x) == repr(x) for a Python float
_PLAIN_CELLS = frozenset({str, int, float})


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([v if type(v) in _PLAIN_CELLS else _format_cell(v)
                          for v in row] for row in rows)


def _json_value(value):
    """What json cannot write itself: a numpy scalar as the Python number it
    holds, anything else as its repr."""
    return value.item() if isinstance(value, np.generic) else repr(value)


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_value)
        fh.write("\n")


def environment_versions() -> dict:
    from . import __version__
    # platform.platform() less the processor, which runs `uname -p`
    host = [platform.system(), platform.release(), platform.machine()]
    libc = "".join(platform.libc_ver())
    if libc:
        host += ["with", libc]
    build = np.show_config(mode="dicts")  # CSV digits follow BLAS threads
    return {"package": __version__, "python": sys.version.split()[0],
            "numpy": np.__version__, "platform": "-".join(host),
            "blas": {key: build["Build Dependencies"]["blas"].get(key)
                     for key in ("name", "version", "openblas configuration")},
            "simd": build["SIMD Extensions"]["found"],
            "threads_env": {name: os.environ.get(name) for name in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
