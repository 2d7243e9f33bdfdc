"""Synthetic paired multimodal data with known latent structure.

Each concept owns a unit latent vector z; the two modalities see different
fixed orthonormal linear projections of it plus isotropic Gaussian noise:

    x_img = A_img @ z + sigma * n_img
    x_txt = A_txt @ z + sigma * n_txt

Two different linear images of one latent produce a genuine geometric
modality gap while keeping retrieval ground truth exact. A duplication
factor creates several pairs per concept (fresh noise each) for harder
retrieval pools and query/candidate splits.

A dataset in memory is one NumPy record array of ``record_dtype(d_in)``,
which is also the on-disk record, so files are written and read without
per-pair conversion. Datasets are stored in the GCLD binary format
(little-endian):

    magic "GCLD" | version u16 | d_in u32 | n_pairs u32 | k u32
    | sigma f32 | seed u64
    then n_pairs records of: concept_id u32 | x_img d_in*f32 | x_txt d_in*f32

with the manifest duplicated as a human-readable JSON sidecar at
``<path>.json`` (the sidecar also carries split and duplication, which the
binary header does not).
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_header, read_json, reading, write_atomic, write_json
from .errors import ConfigError, FormatError, InvalidDimsError

MAGIC = b"GCLD"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIIfQ")

SPLITS = ("train", "eval")
_CONCEPT_BLOCK = 4096  # concepts whose noise and projected latents generate_dataset holds at once


def record_dtype(d_in: int) -> np.dtype:
    """The GCLD record: a concept id and the two float32 feature vectors."""
    return np.dtype([("concept_id", "<u4"), ("x_img", "<f4", (d_in,)), ("x_txt", "<f4", (d_in,))])


@dataclass(frozen=True)
class DatasetManifest:
    """Parameters that exactly reproduce the dataset bytes for a given seed.

    projection_seed identifies the "world" — the fixed modality projections.
    Train/eval splits of one experiment share it while drawing different
    concepts and noise from their own sample seeds. It defaults to the
    sample seed, which reproduces the single-seed layout exactly.
    """

    n_pairs: int
    d_in: int
    k: int
    sigma: float
    seed: int
    split: str = "train"
    duplication: int = 1
    projection_seed: int | None = None


def modality_projections(k: int, d_in: int, seed: int | np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The fixed per-seed orthonormal-column projections (A_img, A_txt).

    Exposed so tests and diagnostics can recover latents via A.T @ x.
    Consumes the first draws of the generation PRNG stream; given a
    Generator, it draws from that stream.
    """
    rng = np.random.default_rng(seed)
    a_img = np.linalg.qr(rng.standard_normal((d_in, k)))[0]
    a_txt = np.linalg.qr(rng.standard_normal((d_in, k)))[0]
    return a_img, a_txt


def generate_dataset(
    n_pairs: int,
    k: int,
    d_in: int,
    sigma: float,
    seed: int,
    duplication: int = 1,
    split: str = "train",
    projection_seed: int | None = None,
) -> tuple[np.recarray, DatasetManifest]:
    """Generate a paired dataset of GCLD records; bit-identical for identical arguments.

    Draw order is fixed: A_img, A_txt, one latent per concept, then per-pair
    noise (image then text, in pair order). Arithmetic runs in float64 and
    features are cast to float32 at the end, so in-memory pairs match the
    on-disk representation exactly. Pair p belongs to concept
    p // duplication.

    projection_seed pins the modality projections independently of the
    sample draws, so several datasets (train/eval/extra splits with
    different sample seeds) can live in one shared world. When it is omitted
    or equals the sample seed, the projections consume the first draws of
    the sample stream, exactly as a single-seed dataset always has.
    """
    if n_pairs < 2:
        raise ConfigError(f"n_pairs must be >= 2, got {n_pairs}")
    if k < 1 or d_in < 1:
        raise InvalidDimsError(f"k and d_in must be >= 1, got k={k}, d_in={d_in}")
    if k > d_in:
        raise InvalidDimsError(f"latent dim k={k} cannot exceed feature dim d_in={d_in}")
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if duplication < 1:
        raise ConfigError(f"duplication must be >= 1, got {duplication}")
    if n_pairs % duplication != 0:
        raise ConfigError(f"n_pairs={n_pairs} must be a multiple of duplication={duplication}")
    if split not in SPLITS:
        raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")

    # float32-representable sigma so generation matches the stored header
    sigma32 = float(np.float32(sigma))
    effective_projection = seed if projection_seed is None else projection_seed
    rng = np.random.default_rng(seed)
    a_img, a_txt = modality_projections(k, d_in, rng if effective_projection == seed else effective_projection)

    # Records first: every working array after them is smaller, so a repeated call asks for the largest first.
    pairs = np.recarray(n_pairs, dtype=record_dtype(d_in))
    pairs.concept_id = np.arange(n_pairs) // duplication
    n_concepts = n_pairs // duplication
    z = rng.standard_normal((n_concepts, k, 1))
    z /= np.sqrt(z.transpose(0, 2, 1) @ z)
    # one block of concepts at a time: consecutive draws continue one stream, and each product is per concept
    for start in range(0, n_concepts, _CONCEPT_BLOCK):
        block = z[start : start + _CONCEPT_BLOCK]
        # axes: concept, view of the concept, modality (image, text), feature
        x = rng.standard_normal((len(block), duplication, 2, d_in))
        x *= sigma32
        x[:, :, 0] += (a_img @ block)[:, None, :, 0]
        x[:, :, 1] += (a_txt @ block)[:, None, :, 0]
        rows = slice(start * duplication, (start + len(block)) * duplication)
        pairs.x_img[rows] = x[:, :, 0].reshape(-1, d_in)
        pairs.x_txt[rows] = x[:, :, 1].reshape(-1, d_in)
    manifest = DatasetManifest(
        n_pairs=n_pairs,
        d_in=d_in,
        k=k,
        sigma=sigma32,
        seed=seed,
        split=split,
        duplication=duplication,
        projection_seed=effective_projection,
    )
    return pairs, manifest


def dataset_to_arrays(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split records into (concept_ids, X_img, X_txt); features widened to float64."""
    return (
        pairs["concept_id"].astype(np.int64),
        pairs["x_img"].astype(np.float64),
        pairs["x_txt"].astype(np.float64),
    )


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def write_dataset(pairs: np.ndarray, manifest: DatasetManifest, path: str | Path) -> None:
    """Write the GCLD binary file plus its JSON manifest sidecar."""
    path = Path(path)
    dtype = record_dtype(manifest.d_in)
    if not isinstance(pairs, np.ndarray) or pairs.dtype != dtype:
        raise ConfigError(f"pairs must be an array of GCLD records {dtype}")
    if pairs.shape != (manifest.n_pairs,):
        raise ConfigError(f"manifest says {manifest.n_pairs} pairs, got shape {pairs.shape}")
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, manifest.d_in, manifest.n_pairs, manifest.k, manifest.sigma, manifest.seed
    )
    write_atomic(path, (header, pairs))  # the records' own bytes, without a copy
    write_json(_sidecar_path(path), {"format": "gcld-manifest", "version": FORMAT_VERSION, **asdict(manifest)})


def read_dataset(path: str | Path) -> tuple[np.recarray, DatasetManifest]:
    """Read a GCLD file back; exact inverse of write_dataset.

    Raises FormatError (with the byte offset of the problem) on bad magic,
    unsupported version, inconsistent header dimensions, truncation, or
    trailing bytes. The sidecar, when present, supplies split, duplication
    and projection_seed; it must be a UTF-8 JSON object that agrees with the
    binary header (sigma up to float32 rounding) and holds a known split, an
    int duplication >= 1 and an int or null projection_seed. The
    returned records are a read-only view of the file's bytes.
    """
    path = Path(path)
    blob = path.read_bytes()
    with reading(path):
        d_in, n_pairs, k, sigma, seed = read_header(blob, _HEADER, MAGIC, FORMAT_VERSION)
        if d_in < 1:
            raise FormatError(f"header d_in must be >= 1, got {d_in}", offset=6)
        if k < 1 or k > d_in:
            raise FormatError(f"header k={k} inconsistent with d_in={d_in}", offset=14)
        try:
            dtype = record_dtype(d_in)
        except ValueError as exc:  # d_in too large for a NumPy record
            raise FormatError(f"header d_in={d_in} is not a readable record width: {exc}", offset=6) from exc
        expected = _HEADER.size + n_pairs * dtype.itemsize
        if len(blob) != expected:
            raise FormatError(
                f"payload size mismatch: header implies {expected} bytes, file has {len(blob)}",
                offset=min(len(blob), expected),
            )
    pairs = np.frombuffer(blob, dtype=dtype, offset=_HEADER.size).view(np.recarray)

    split, duplication, projection_seed = "train", 1, seed
    sidecar_path = _sidecar_path(path)
    if sidecar_path.exists():
        sidecar = read_json(sidecar_path, "sidecar")
        with reading(sidecar_path):
            for field_name, header_value in (("n_pairs", n_pairs), ("d_in", d_in), ("k", k), ("seed", seed)):
                if sidecar.get(field_name) != header_value:
                    raise FormatError(
                        f"sidecar {field_name}={sidecar.get(field_name)} disagrees with header {header_value}"
                    )
            sidecar_sigma = sidecar.get("sigma")
            with np.errstate(over="ignore"):  # a huge sigma rounds to inf and mismatches
                sigma_agrees = type(sidecar_sigma) in (int, float) and float(np.float32(sidecar_sigma)) == sigma
            if not sigma_agrees:
                raise FormatError(f"sidecar sigma={sidecar_sigma!r} disagrees with header {sigma}")
            split = sidecar.get("split", "train")
            if split not in SPLITS:
                raise FormatError(f"sidecar split must be one of {SPLITS}, got {split!r}")
            duplication = sidecar.get("duplication", 1)
            if type(duplication) is not int or duplication < 1:
                raise FormatError(f"sidecar duplication must be an int >= 1, got {duplication!r}")
            projection_seed = sidecar.get("projection_seed")
            if projection_seed is None:
                projection_seed = seed
            elif type(projection_seed) is not int:
                raise FormatError(f"sidecar projection_seed must be an int or null, got {projection_seed!r}")
    manifest = DatasetManifest(
        n_pairs=n_pairs,
        d_in=d_in,
        k=k,
        sigma=sigma,
        seed=seed,
        split=split,
        duplication=duplication,
        projection_seed=projection_seed,
    )
    return pairs, manifest
