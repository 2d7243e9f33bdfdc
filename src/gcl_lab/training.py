"""Deterministic mini-batch training of toy encoders under any configured loss.

The loop is a pure function of (config, dataset, seed): parameter init and
per-epoch shuffles come from named SeedSequence streams, batches are taken
in fixed order with the ragged tail dropped, and all arithmetic is float64.
Two runs with the same inputs produce bit-identical weights and logs.

Checkpoints use the GCLC binary format (little-endian):

    magic "GCLC" | version u16 | config sha256 (32 raw bytes) | seed u64
    | epochs_completed u32 | n_arrays u32
    then per array (names strictly ascending):
    name_len u16 | name utf8 | ndim u8 | dims u32 * ndim | float64 data

Arrays hold encoder parameters, AdamW moments ("opt.m.*", "opt.v.*"), and
the optimizer step counter ("opt.step"). The optimized parameters, their
gradients and each moment are one flat vector per set; the trainer keeps all
but the step in one name -> view state table, in checkpoint order: a resume
copies the stored arrays into it, and save_checkpoint writes it and the step.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import read_header, reading, write_atomic
from .embeddings import EmbeddingMatrix, Modality, fuse_sum_rows, normalize_rows, normalize_rows_backward
from .encoders import EncoderConfig, build_encoder, LinearEncoder, MlpEncoder
from .errors import (
    ConfigError,
    DivergenceDetectedError,
    FormatError,
    NonFiniteGradientError,
    ShapeMismatchError,
)
from .losses import (
    ABLATION_DROPS,
    CL_PAIR_SET,
    LossConfig,
    TripletBatch,
    cl_loss,
    gcl_loss,
    gcl_loss_ablation,
    intra_modality_separation_loss,
    pair_name,
    two_direction_loss,
)
from .optim import OptimizerState, ScheduleConfig, adamw_step, lr_at
from .synth import dataset_to_arrays

CHECKPOINT_MAGIC = b"GCLC"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sH32sQII")

BASE_VARIANTS = ("gcl", "cl", "imsep", "gcl_plus_triplet")

# The mixed objective's triplet-style task by step parity, as (query,
# candidate): even steps retrieve images from fused queries, odd steps
# retrieve fused candidates from text queries.
MIXED_TASKS = ((Modality.FUSED, Modality.IMAGE), (Modality.TEXT, Modality.FUSED))


def parse_variant(variant: str) -> tuple[str, str | None]:
    """Split a variant name into (kind, ablation drop or None)."""
    if variant in BASE_VARIANTS:
        return variant, None
    if variant.startswith("gcl_ablation:"):
        drop = variant.split(":", 1)[1]
        if drop in ABLATION_DROPS:
            return "gcl_ablation", drop
    raise ConfigError(
        f"unknown variant {variant!r}; expected one of {BASE_VARIANTS} or "
        f"gcl_ablation:<{'|'.join(sorted(ABLATION_DROPS))}>"
    )


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides the dataset itself."""

    variant: str = "gcl"
    loss: LossConfig = field(default_factory=LossConfig)
    batch_size: int = 128
    epochs: int = 5
    base_lr: float = 1e-3
    weight_decay: float = 0.0
    warmup_steps: int = 500
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    renormalize_fusion: bool = True
    freeze_image: bool = False
    freeze_text: bool = False
    learnable_tau: bool = False
    tau_min: float = 0.01
    tau_max: float = 1.0
    triplet_weight: float = 0.0

    def __post_init__(self):
        parse_variant(self.variant)
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.triplet_weight < 0:
            raise ConfigError(f"triplet_weight must be >= 0, got {self.triplet_weight}")
        if not (0 < self.tau_min <= self.tau_max):
            raise ConfigError(f"need 0 < tau_min <= tau_max, got {self.tau_min}, {self.tau_max}")
        if self.learnable_tau and not (self.tau_min <= self.loss.tau <= self.tau_max):
            raise ConfigError(f"learnable tau starts at {self.loss.tau}, outside [{self.tau_min}, {self.tau_max}]")
        if self.variant == "imsep" and self.batch_size < 2:
            raise ConfigError(f"imsep needs batch_size >= 2 for its separation negatives, got {self.batch_size}")

    @property
    def uses_mixed(self) -> bool:
        """Whether a step adds the mixed objective's weighted term (gcl_plus_triplet with triplet_weight > 0)."""
        return self.variant == "gcl_plus_triplet" and self.triplet_weight > 0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["loss"] = {
            "tau": self.loss.tau,
            "pair_set": [pair_name(p) for p in self.loss.pair_set],
            "denominator_mode": self.loss.denominator_mode.value,
            "normalization": self.loss.normalization,
        }
        return d


def config_hash(config: TrainConfig) -> str:
    """sha256 over the canonical JSON form of the config."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def fusion_backprop(
    grad_fused: np.ndarray,
    e_i: np.ndarray,
    e_t: np.ndarray,
    renormalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule a fused-embedding gradient back to both inputs.

    e_it = normalize(e_i + e_t) when renormalize is set, else the raw sum.
    The sum has identity Jacobian toward each input, so both inputs receive
    the same gradient: grad_fused itself, or (I - u u^T)/||s|| applied
    row-wise with s = e_i + e_t, u = s/||s||. A zero row of s raises
    ZeroVectorError. An all-zero grad_fused (a loss that reads no fused
    rows) chains to zero either way, so it is returned as it is.
    """
    if grad_fused.shape != e_i.shape or e_i.shape != e_t.shape:
        raise ShapeMismatchError(f"fusion_backprop shapes disagree: {grad_fused.shape}, {e_i.shape}, {e_t.shape}")
    if renormalize and grad_fused.any():
        u, norms = normalize_rows(e_i + e_t)
        grad_fused = normalize_rows_backward(grad_fused, u, norms)
    return grad_fused, grad_fused.copy()


def forward_batch(
    image_encoder,
    text_encoder,
    x_img: np.ndarray,
    x_txt: np.ndarray,
    renormalize_fusion: bool = True,
) -> TripletBatch:
    """Encode raw features into a TripletBatch (image, text, fused rows)."""
    if x_img.shape[0] != x_txt.shape[0] or x_img.shape[0] == 0:
        raise ShapeMismatchError(f"batch shapes disagree or empty: {x_img.shape} vs {x_txt.shape}")
    e_i, e_t = image_encoder.encode(x_img), text_encoder.encode(x_txt)
    fused = fuse_sum_rows(e_i, e_t, renormalize=renormalize_fusion)
    return TripletBatch.from_rows(e_i, e_t, fused, validate_norms=False)


@dataclass
class TrainedModel:
    """Trained encoder pair plus the effective temperature."""

    config: TrainConfig
    image_encoder: LinearEncoder | MlpEncoder
    text_encoder: LinearEncoder | MlpEncoder
    tau: float

    def encode_batch(self, x_img: np.ndarray, x_txt: np.ndarray) -> TripletBatch:
        return forward_batch(self.image_encoder, self.text_encoder, x_img, x_txt, self.config.renormalize_fusion)


def _loss_for_variant(kind, drop, loss_cfg):
    """The variant's loss of a batch, looked up per call so that wrappers on these module names run."""
    if kind == "gcl_ablation":
        return partial(gcl_loss_ablation, drop=drop, cfg=loss_cfg)
    # gcl is also the main term of gcl_plus_triplet
    return partial({"cl": cl_loss, "imsep": intra_modality_separation_loss}.get(kind, gcl_loss), cfg=loss_cfg)


def _backprop(encoders, trained, x_img, x_txt, loss_of, fuses, renormalize, grads, weight):
    """Encode one batch, apply loss_of to it, and add weight times each trained
    encoder's parameter gradients into grads; returns the loss output.

    loss_of gets the TripletBatch, or without fuses the image and text
    EmbeddingMatrix: cl and imsep read no fused rows, so none are formed.
    Each encoder's output gradient is its own partial plus the fused partial
    chained through the fusion.
    """
    (e_i, cache_i), (e_t, cache_t) = encoders["img"].forward(x_img), encoders["txt"].forward(x_txt)
    if fuses:
        fused = fuse_sum_rows(e_i, e_t, renormalize=renormalize)
        out = loss_of(TripletBatch.from_rows(e_i, e_t, fused, validate_norms=False))
    else:
        out = loss_of(EmbeddingMatrix(e_i, Modality.IMAGE), EmbeddingMatrix(e_t, Modality.TEXT))
    grad_fused, _ = fusion_backprop(out.grads.fused, e_i, e_t, renormalize)
    for prefix, cache, grad_own in (("img", cache_i, out.grads.images), ("txt", cache_t, out.grads.texts)):
        if prefix in trained:
            for key, g in encoders[prefix].backward(cache, grad_own + grad_fused).items():
                grads[f"{prefix}.{key}"] += g if weight == 1.0 else weight * g
    return out


def _flat(like: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One zero float64 vector, and a view of it shaped like each array of like, in name (checkpoint) order."""
    flat, views, at = np.zeros(sum(p.size for p in like.values())), {}, 0
    for name in sorted(like):
        views[name] = flat[at : at + like[name].size].reshape(like[name].shape)
        at += like[name].size
    return flat, views


def train(
    config: TrainConfig,
    pairs: np.ndarray,
    second_pairs: np.ndarray | None = None,
    checkpoint_path: str | Path | None = None,
    resume_from: str | Path | None = None,
    stop_after_epochs: int | None = None,
) -> tuple[TrainedModel, list[dict]]:
    """Run the full training loop; returns the model and one log record per step.

    RNG streams are isolated by purpose: [seed, 0] initializes parameters
    (image encoder first), [seed, 1, epoch] shuffles the main dataset, and
    [seed, 2, epoch] shuffles the mixed-objective dataset. The mixed term is
    skipped entirely when triplet_weight is 0, so a zero-weight run is
    bit-identical to the pure run.

    stop_after_epochs interrupts the run early (the checkpoint records how
    far it got); resume_from restores the checkpoint file of the same config and
    continues until config.epochs. Because shuffles are keyed by epoch and
    the optimizer state round-trips exactly, an interrupted-then-resumed run
    reproduces the uninterrupted run bit for bit.
    """
    kind, drop = parse_variant(config.variant)
    records = pairs.view(np.ndarray)  # batches are widened to float64 as drawn, not the whole dataset
    d_in = records.dtype["x_img"].shape[0]
    if d_in != config.encoder.d_in:
        raise ShapeMismatchError(f"dataset d_in={d_in} but encoder expects {config.encoder.d_in}")
    n_total = len(pairs)
    steps_per_epoch = n_total // config.batch_size
    if steps_per_epoch == 0:
        raise ConfigError(f"dataset has {n_total} pairs, fewer than one batch of {config.batch_size}")
    total_steps = steps_per_epoch * config.epochs
    sched = ScheduleConfig(
        total_steps=total_steps,
        warmup_steps=min(config.warmup_steps, total_steps),
        base_lr=config.base_lr,
    )

    if config.uses_mixed:
        if second_pairs is None:
            raise ConfigError("variant gcl_plus_triplet with triplet_weight > 0 needs second_pairs")
        if len(second_pairs) < config.batch_size:
            raise ConfigError("second dataset must contain at least one full batch")

    init_rng = np.random.default_rng([config.seed, 0])
    encoders = {prefix: build_encoder(config.encoder, init_rng) for prefix in ("img", "txt")}
    frozen = {"img": config.freeze_image, "txt": config.freeze_text}
    trained = {prefix for prefix in encoders if not frozen[prefix]}
    params = {f"{prefix}.{key}": p for prefix, enc in encoders.items() for key, p in enc.params.items()}
    if config.learnable_tau:
        params["log_tau"] = np.array(math.log(config.loss.tau))
    optimized = {name: p for name, p in params.items() if name.partition(".")[0] in trained or name == "log_tau"}
    # the optimized parameters, their gradients and each AdamW moment: one vector per set, viewed by name
    (flat, views), (grad_flat, grads), (m, m_views), (v, v_views) = (_flat(optimized) for _ in range(4))
    for name, view in views.items():
        view[...] = params[name]
        params[name] = view
    for prefix in trained:
        encoders[prefix].params = {key: views[f"{prefix}.{key}"] for key in encoders[prefix].params}
    opt_state = OptimizerState({"all": m}, {"all": v}, weight_decay=config.weight_decay)
    # everything a checkpoint holds besides the step counter, by its name in the file
    state = {**params, **{f"opt.m.{k}": a for k, a in m_views.items()}}
    state.update({f"opt.v.{k}": a for k, a in v_views.items()})

    start_epoch = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        _check_config_hash(ckpt, config)
        if not (0 < ckpt.epochs_completed < config.epochs):
            raise ConfigError(
                f"cannot resume: checkpoint has {ckpt.epochs_completed} epochs completed "
                f"of {config.epochs} configured"
            )
        _check_shapes(ckpt, {**{name: arr.shape for name, arr in state.items()}, "opt.step": ()})
        for name, arr in state.items():
            np.copyto(arr, ckpt.arrays[name])
        opt_state.step = int(ckpt.arrays["opt.step"])
        start_epoch = ckpt.epochs_completed

    last_epoch = config.epochs if stop_after_epochs is None else stop_after_epochs
    if not (start_epoch < last_epoch <= config.epochs):
        raise ConfigError(
            f"stop_after_epochs={stop_after_epochs} must leave work: "
            f"resuming at epoch {start_epoch} of {config.epochs}"
        )

    # cl and imsep read the two cross-modal pairs with the default normalization, and no fused rows
    loss_cfg, renormalize, fuses = config.loss, config.renormalize_fusion, kind not in ("cl", "imsep")
    if not fuses:
        loss_cfg = replace(loss_cfg, pair_set=CL_PAIR_SET, normalization=None)
    log: list[dict] = []
    step = start_epoch * steps_per_epoch
    for epoch in range(start_epoch, last_epoch):
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(n_total)
        if config.uses_mixed:
            order2 = np.random.default_rng([config.seed, 2, epoch]).permutation(len(second_pairs))
            steps2 = len(second_pairs) // config.batch_size
        for b in range(steps_per_epoch):
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            tau_now = float(np.exp(params["log_tau"])) if config.learnable_tau else config.loss.tau
            if loss_cfg.tau != tau_now:  # only a learnable tau moves; rebuilding re-validates
                loss_cfg = replace(loss_cfg, tau=tau_now)
            grad_flat.fill(-0.0)  # the additive identity, so the first add leaves exactly the added gradient

            _, x_img, x_txt = dataset_to_arrays(records.take(idx))
            main_loss = _loss_for_variant(kind, drop, loss_cfg)
            out = _backprop(encoders, trained, x_img, x_txt, main_loss, fuses, renormalize, grads, 1.0)
            value = out.value
            grad_log_tau = out.grad_tau * tau_now
            if config.uses_mixed:
                idx2 = order2[(b % steps2) * config.batch_size : (b % steps2 + 1) * config.batch_size]
                _, x2_img, x2_txt = dataset_to_arrays(second_pairs.view(np.ndarray).take(idx2))
                query, candidate = MIXED_TASKS[step % 2]
                mixed_loss = partial(two_direction_loss, query=query, candidate=candidate, tau=tau_now)
                w = config.triplet_weight
                t_out = _backprop(encoders, trained, x2_img, x2_txt, mixed_loss, True, renormalize, grads, w)
                value = value + w * t_out.value
                grad_log_tau += w * t_out.grad_tau * tau_now
            if config.learnable_tau:
                grads["log_tau"][()] = grad_log_tau

            record = {
                "step": step,
                "epoch": epoch,
                "loss": value,
                "lr": lr_at(step, sched),
                "tau": tau_now,
                "per_term": dict(sorted(out.per_term.items())),
            }
            if config.uses_mixed:
                record["triplet_loss"] = t_out.value
            if not math.isfinite(value):
                raise DivergenceDetectedError(f"loss became non-finite at step {step} (epoch {epoch})")
            try:
                adamw_step({"all": flat}, {"all": grad_flat}, opt_state, record["lr"])
            except NonFiniteGradientError:
                bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
                err = NonFiniteGradientError(f"non-finite gradients at step {step} in {bad}")
                err.state_dump = {"step": step, "epoch": epoch, "loss": value, "bad_keys": bad}
                err.state_dump["param_norms"] = {k: float(np.linalg.norm(p)) for k, p in params.items()}
                raise err from None
            if config.learnable_tau:
                log_tau = params["log_tau"]
                np.clip(log_tau, math.log(config.tau_min), math.log(config.tau_max), out=log_tau)
            log.append(record)
            step += 1

    final_tau = float(np.exp(params["log_tau"])) if config.learnable_tau else config.loss.tau
    model = TrainedModel(
        config=config, image_encoder=encoders["img"], text_encoder=encoders["txt"], tau=final_tau
    )
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path,
            {**state, "opt.step": np.array(float(opt_state.step))},
            cfg_hash=config_hash(config),
            seed=config.seed,
            epochs_completed=last_epoch,
        )
    return model, log


def save_checkpoint(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    cfg_hash: str,
    seed: int,
    epochs_completed: int,
) -> None:
    """Write named float64 arrays in the GCLC binary format, sorted by name."""
    chunks = [
        _CKPT_HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_VERSION, bytes.fromhex(cfg_hash), seed, epochs_completed, len(arrays)
        )
    ]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f8")
        encoded = name.encode()
        chunks.append(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
        chunks.append(arr.tobytes())
    write_atomic(path, chunks)


@dataclass(frozen=True)
class Checkpoint:
    """Decoded GCLC contents."""

    config_hash: str
    seed: int
    epochs_completed: int
    arrays: dict[str, np.ndarray]


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a GCLC file; raises FormatError with a byte offset on corruption."""
    blob = Path(path).read_bytes()
    with reading(path):
        header = read_header(blob, _CKPT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        hash_raw, seed, epochs_completed, n_arrays = header
        arrays: dict[str, np.ndarray] = {}
        offset = _CKPT_HEADER.size
        for _ in range(n_arrays):
            if offset + 2 > len(blob):
                raise FormatError("truncated array name length", offset=offset)
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            if offset + name_len + 1 > len(blob):
                raise FormatError("truncated array name", offset=offset)
            try:
                name = blob[offset : offset + name_len].decode()
            except UnicodeDecodeError as exc:
                raise FormatError(f"array name is not UTF-8: {exc.reason}", offset=offset + exc.start) from exc
            if arrays and name <= prev:
                raise FormatError(f"array {name!r} does not sort after {prev!r}: names must ascend", offset=offset)
            prev = name
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            if ndim > 64:  # numpy's limit on array dimensions
                raise FormatError(f"array {name!r} has {ndim} dimensions, at most 64 are supported", offset=offset)
            offset += 1
            if offset + 4 * ndim > len(blob):
                raise FormatError(f"truncated shape for array {name!r}", offset=offset)
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            nbytes = 8 * math.prod(shape)  # Python ints: a product of large dims cannot wrap
            if offset + nbytes > len(blob):
                raise FormatError(f"truncated data for array {name!r}", offset=offset)
            arr = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8").reshape(shape).copy()
            offset += nbytes
            arrays[name] = arr
        if offset != len(blob):
            raise FormatError(f"{len(blob) - offset} trailing bytes after last array", offset=offset)
    return Checkpoint(
        config_hash=hash_raw.hex(), seed=seed, epochs_completed=epochs_completed, arrays=arrays
    )


def _check_config_hash(ckpt: Checkpoint, config: TrainConfig) -> None:
    expected = config_hash(config)
    if ckpt.config_hash != expected:
        raise ConfigError(
            f"checkpoint was written for config {ckpt.config_hash[:12]}..., "
            f"but the given config hashes to {expected[:12]}..."
        )


def _check_shapes(ckpt: Checkpoint, shapes: dict[str, tuple]) -> None:
    """Each named checkpoint array must exist and have the shape it is restored into."""
    missing = sorted(set(shapes) - set(ckpt.arrays))
    if missing:
        raise ConfigError(f"checkpoint is missing arrays {missing}")
    for name, shape in shapes.items():
        if ckpt.arrays[name].shape != shape:
            raise ConfigError(f"checkpoint array {name!r} has shape {ckpt.arrays[name].shape}, expected {shape}")


def model_from_checkpoint(config: TrainConfig, path: str | Path) -> TrainedModel:
    """Rebuild a TrainedModel from a config and its checkpoint file.

    The stored config hash must match the given config, and every stored
    parameter the shape of a freshly built encoder's.
    """
    ckpt = load_checkpoint(path)
    _check_config_hash(ckpt, config)
    template = build_encoder(config.encoder, np.random.default_rng(0))  # only its class and shapes are used
    shapes = {f"{prefix}.{key}": p.shape for prefix in ("img", "txt") for key, p in template.params.items()}
    if config.learnable_tau:
        shapes["log_tau"] = ()
    _check_shapes(ckpt, shapes)
    image_encoder, text_encoder = (
        type(template)(config.encoder, {key: ckpt.arrays[f"{prefix}.{key}"] for key in template.params})
        for prefix in ("img", "txt")
    )
    tau = float(np.exp(ckpt.arrays["log_tau"])) if config.learnable_tau else config.loss.tau
    return TrainedModel(config=config, image_encoder=image_encoder, text_encoder=text_encoder, tau=tau)
