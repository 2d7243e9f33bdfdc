"""How a run file reaches the disk and how it is read back.

A writer puts the bytes in a temporary file beside the target and renames
it over the target, so a process that dies mid-write leaves the old file
whole and no temporary file. A reader raises FormatError, naming the file,
on anything that is not the expected layout.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError


def write_atomic(path: str | Path, chunks: Iterable) -> None:
    """Write chunks (bytes, or arrays written as their own bytes) as the new
    content of path, creating its directory if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                if isinstance(chunk, np.ndarray):  # tofile preallocates, so ext4's rename need not allocate
                    chunk.tofile(fh)
                else:
                    fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    write_atomic(path, (text.encode("utf-8"),))


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) nested at indent pad, with
    each flat list of numbers encoded by the C encoder and then re-indented."""
    inner = pad + "  "
    if type(value) is dict and value and all(type(k) is str for k in value):
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if type(value) is list and value and type(value[0]) in (int, float):
        flat = json.dumps(value)
        if '"' not in flat and "[" not in flat[1:] and "{" not in flat:  # no strings or containers
            return "[\n" + inner + flat[1:-1].replace(", ", ",\n" + inner) + "\n" + pad + "]"
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def write_json(path: str | Path, payload) -> None:
    """payload as json.dumps(payload, indent=2, sort_keys=True) plus a newline."""
    write_text(path, _json_text(payload) + "\n")


def read_json(path: Path, what: str) -> dict:
    """A JSON-object artifact; raises FormatError when it is not one."""
    try:
        text = path.read_bytes().decode("utf-8")
        payload = json.loads(text)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} {path} is not UTF-8: {exc.reason}", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise FormatError(f"{what} {path} is not valid JSON: {exc.msg}", offset=offset) from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{what} {path} must be a JSON object, got {type(payload).__name__}")
    return payload


def record_timing(path: Path, command: str, entry: dict) -> None:
    """Set one command's entry in timings.json, keeping the other commands'."""
    timings = read_json(path, "timings") if path.exists() else {}
    timings[command] = entry
    write_json(path, timings)


@contextmanager
def reading(path: Path) -> Iterator[None]:
    """Name path at the start of any FormatError raised inside the block."""
    try:
        yield
    except FormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_header(blob: bytes, header: struct.Struct, magic: bytes, version: int) -> list:
    """The fields of a binary file's header after its magic and u16 version.

    Raises FormatError when blob is shorter than the header or its magic or
    version is not the expected one.
    """
    if len(blob) < header.size:
        raise FormatError(f"truncated header: need {header.size} bytes, file has {len(blob)}", offset=len(blob))
    found_magic, found_version, *fields = header.unpack_from(blob, 0)
    if found_magic != magic:
        raise FormatError(f"bad magic {found_magic!r}, expected {magic!r}", offset=0)
    if found_version != version:
        raise FormatError(f"unsupported format version {found_version}, expected {version}", offset=len(magic))
    return fields
