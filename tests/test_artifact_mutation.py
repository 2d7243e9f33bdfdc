"""Bit-flip mutation of every artifact a run reads back.

Each read of a dataset (GCLD and its sidecar), a checkpoint (GCLC),
train_log.json, report.json or timings.json with 1-4 flipped bits must
either load or raise FormatError, never another exception. A checkpoint
that still loads must then rebuild a model or fail its config-hash or
shape checks with ConfigError.
"""

import pytest
from hypothesis import given, settings, strategies as st

import gcl_lab.synth as synth
import gcl_lab.training as training
from gcl_lab.artifacts import read_json
from gcl_lab.errors import ConfigError, FormatError
from gcl_lab.experiment import ExperimentConfig, ExperimentPaths, cmd_eval, cmd_generate, cmd_train

TINY = {
    "data": {"n_pairs": 64, "eval_pairs": 32, "d_in": 8, "k": 4},
    "train": {"d_out": 6, "batch_size": 32, "epochs": 1, "warmup_steps": 1},
    "eval": {"k_values": [1, 5]},
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig.from_dict({**TINY, "output_dir": str(root / "run")})
    paths = ExperimentPaths.for_run(cfg.output_dir)
    cmd_generate(cfg, paths)
    cmd_train(cfg, paths)
    cmd_eval(cfg, paths)
    return cfg, paths, root / "mutated"


def gclc_structure(path) -> list[int]:
    """Offsets of a GCLC file's header and of each array's name, ndim and dims."""
    offsets, at = list(range(training._CKPT_HEADER.size)), training._CKPT_HEADER.size
    for name, arr in sorted(training.load_checkpoint(path).arrays.items()):
        fields = 2 + len(name.encode()) + 1 + 4 * arr.ndim
        offsets += range(at, at + fields)
        at += fields + 8 * arr.size
    return offsets


def read_checkpoint(cfg, path):
    training.load_checkpoint(path)  # raises FormatError on corruption
    try:
        training.model_from_checkpoint(cfg.train_config(), path)
    except ConfigError:
        pass


def read_dataset(cfg, path):
    synth.read_dataset(path.with_name("eval.gcld"))  # reads the sidecar beside it too


def json_reader(what):
    return lambda cfg, path: read_json(path, what)


# format -> (the run's file, offsets where its layout lives or None for all, reader of the mutated copy)
FORMATS = {
    "gcld": (lambda p: p.eval_data, lambda path: range(synth._HEADER.size), read_dataset),
    "sidecar": (lambda p: p.eval_data.with_name("eval.gcld.json"), None, read_dataset),
    "gclc": (lambda p: p.checkpoint, gclc_structure, read_checkpoint),
    "train_log": (lambda p: p.train_log, None, json_reader("training log")),
    "report": (lambda p: p.report, None, json_reader("report")),
    "timings": (lambda p: p.timings, None, json_reader("timings")),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_flipped_bits_load_or_raise_format_error(run, fmt, data):
    cfg, paths, out = run
    source, structure, read = FORMATS[fmt]
    blob = bytearray(source(paths).read_bytes())
    # in a binary file about half the flips hit its layout fields; past them only float data follows
    byte = st.integers(0, len(blob) - 1)
    if structure is not None:
        byte = st.one_of(st.sampled_from(list(structure(source(paths)))), byte)
    flips = data.draw(st.lists(st.tuples(byte, st.integers(0, 7)), min_size=1, max_size=4, unique=True))
    for at, bit in flips:
        blob[at] ^= 1 << bit
    out.mkdir(exist_ok=True)
    for partner in (paths.eval_data, paths.eval_data.with_name("eval.gcld.json")):
        (out / partner.name).write_bytes(partner.read_bytes())  # unmutated dataset halves
    mutated = out / source(paths).name
    mutated.write_bytes(bytes(blob))
    try:
        read(cfg, mutated)
    except FormatError:
        pass
