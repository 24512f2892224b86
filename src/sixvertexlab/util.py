"""Run plumbing: deterministic CSV/JSON writers and an ordered parallel map."""

from __future__ import annotations

import csv
import json
import os
import platform
import sys
from typing import Callable, Iterable, Sequence


def parallel_map(fn: Callable, items: Sequence, threads: int) -> list:
    """Map preserving input order; results are identical for any thread count
    (each task is independent and the reduction order is the input order)."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip form, bit-reproducible
    if isinstance(value, (list, tuple)):
        return " ".join(_format_cell(v) for v in value)
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")


def environment_versions() -> dict:
    import numpy

    from . import __version__
    # platform.platform() less the processor, which runs `uname -p`
    host = [platform.system(), platform.release(), platform.machine()]
    libc = "".join(platform.libc_ver())
    if libc:
        host += ["with", libc]
    return {"package": __version__, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "platform": "-".join(host)}
