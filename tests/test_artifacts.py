"""Every run file is written through gcl_lab.artifacts, and written atomically.

A writer that dies part-way must leave the file it replaces whole and no
temporary file beside it. The guard test keeps every other module of the
package from writing a file itself.
"""

import ast
import errno
from pathlib import Path

import numpy as np
import pytest

import gcl_lab.artifacts as artifacts
from gcl_lab.artifacts import write_json, write_text
from gcl_lab.synth import generate_dataset, write_dataset
from gcl_lab.training import save_checkpoint

SRC = Path(artifacts.__file__).parent


class DyingFile:
    """A file that takes the first bytes of a write and then fails as a full disk does."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, chunk):
        self.fh.write(bytes(chunk)[:10])
        raise OSError(errno.ENOSPC, "No space left on device")


def dataset(path, seed):
    write_dataset(*generate_dataset(n_pairs=8, k=2, d_in=4, sigma=0.1, seed=seed), path)


def checkpoint(path, seed):
    arrays = {"img.W": np.full((3, 2), float(seed)), "opt.step": np.array(float(seed))}
    save_checkpoint(path, arrays, cfg_hash="ab" * 32, seed=seed, epochs_completed=seed)


# writer -> (the file it writes, a call that writes it for a given seed)
WRITERS = {
    "gcld+sidecar": ("eval.gcld", dataset),
    "gclc": ("checkpoint.gclc", checkpoint),
    "json": ("timings.json", lambda path, seed: write_json(path, {"train": {"seconds": float(seed)}})),
    "csv": ("global_q_i_to_c_t.csv", lambda path, seed: write_text(path, f"query_id,rank\n0,{seed}\n")),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_is_atomic(writer, tmp_path, monkeypatch):
    name, write = WRITERS[writer]
    write(tmp_path / name, 1)
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(artifacts, "open", DyingFile, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path / name, 2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
    monkeypatch.undo()
    write(tmp_path / name, 2)  # the same call without the failure does replace the file
    assert (tmp_path / name).read_bytes() != old[name]


def file_writes(source: str) -> list[str]:
    """The file-writing calls in Python source: open in a writing mode,
    write_text, write_bytes, tofile and os.replace."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                found.append(f"line {node.lineno}: open(..., {ast.unparse(mode)})")
        elif isinstance(func, ast.Attribute) and (
            func.attr in ("write_text", "write_bytes", "tofile")
            or (func.attr == "replace" and isinstance(func.value, ast.Name) and func.value.id == "os")
        ):
            found.append(f"line {node.lineno}: {ast.unparse(func)}")
    return found


def test_only_artifacts_writes_files():
    assert file_writes((SRC / "artifacts.py").read_text())  # the guard sees writes where they belong
    offenders = {
        path.name: file_writes(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "artifacts.py"
    }
    assert {name: calls for name, calls in offenders.items() if calls} == {}
