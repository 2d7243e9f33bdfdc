"""Deterministic mini-batch training of toy encoders under any configured loss.

The loop is a pure function of (config, dataset, seed): parameter init and
per-epoch shuffles come from named SeedSequence streams, batches are taken
in fixed order with the ragged tail dropped, and all arithmetic is float64.
Two runs with the same inputs produce bit-identical weights and logs.

Checkpoints use the GCLC binary format (little-endian):

    magic "GCLC" | version u16 | config sha256 (32 raw bytes) | seed u64
    | epochs_completed u32 | n_arrays u32
    then per array (sorted by name):
    name_len u16 | name utf8 | ndim u8 | dims u32 * ndim | float64 data

Arrays hold encoder parameters, AdamW moments ("opt.m.*", "opt.v.*"), and
the optimizer step counter ("opt.step").
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .embeddings import Modality, fuse_sum_rows, normalize_rows, normalize_rows_backward
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
    parse_pair,
    two_direction_loss,
)
from .optim import OptimizerState, ScheduleConfig, adamw_step, lr_at
from .synth import SyntheticPair, dataset_to_arrays

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

    def to_dict(self) -> dict:
        d = {
            "variant": self.variant,
            "loss": {
                "tau": self.loss.tau,
                "pair_set": [pair_name(p) for p in self.loss.pair_set],
                "denominator_mode": self.loss.denominator_mode.value,
                "normalization": self.loss.normalization,
            },
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "base_lr": self.base_lr,
            "weight_decay": self.weight_decay,
            "warmup_steps": self.warmup_steps,
            "seed": self.seed,
            "encoder": asdict(self.encoder),
            "renormalize_fusion": self.renormalize_fusion,
            "freeze_image": self.freeze_image,
            "freeze_text": self.freeze_text,
            "learnable_tau": self.learnable_tau,
            "tau_min": self.tau_min,
            "tau_max": self.tau_max,
            "triplet_weight": self.triplet_weight,
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        from .losses import DenominatorMode

        loss_d = d.get("loss", {})
        loss = LossConfig(
            tau=loss_d.get("tau", 0.07),
            pair_set=tuple(parse_pair(n) for n in loss_d["pair_set"])
            if "pair_set" in loss_d
            else LossConfig().pair_set,
            denominator_mode=DenominatorMode(loss_d.get("denominator_mode", "algorithm_masked")),
            normalization=loss_d.get("normalization"),
        )
        encoder = EncoderConfig(**d.get("encoder", {}))
        plain = {
            k: v
            for k, v in d.items()
            if k not in ("loss", "encoder")
        }
        return cls(loss=loss, encoder=encoder, **plain)


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
    ZeroVectorError.
    """
    if grad_fused.shape != e_i.shape or e_i.shape != e_t.shape:
        raise ShapeMismatchError(
            f"fusion_backprop shapes disagree: {grad_fused.shape}, {e_i.shape}, {e_t.shape}"
        )
    if not renormalize:
        return grad_fused.copy(), grad_fused.copy()
    u, norms = normalize_rows(e_i + e_t)
    g = normalize_rows_backward(grad_fused, u, norms)
    return g, g.copy()


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
    e_i = image_encoder.encode(x_img)
    e_t = text_encoder.encode(x_txt)
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
        return forward_batch(
            self.image_encoder,
            self.text_encoder,
            x_img,
            x_txt,
            renormalize_fusion=self.config.renormalize_fusion,
        )

    @property
    def param_count(self) -> int:
        return self.image_encoder.param_count + self.text_encoder.param_count


def _loss_for_variant(kind, drop, batch, loss_cfg):
    if kind == "cl":
        return cl_loss(batch.images, batch.texts, replace(loss_cfg, pair_set=CL_PAIR_SET, normalization=None))
    if kind == "imsep":
        return intra_modality_separation_loss(
            batch.images, batch.texts, replace(loss_cfg, pair_set=CL_PAIR_SET, normalization=None)
        )
    if kind == "gcl_ablation":
        return gcl_loss_ablation(batch, drop, loss_cfg)
    # gcl and the main term of gcl_plus_triplet
    return gcl_loss(batch, loss_cfg)


def _encoder_output_grads(out, e_i: np.ndarray, e_t: np.ndarray, renormalize: bool):
    """Gradients reaching each encoder's output: its own partial plus its share
    of the fused partial, chained through the fusion."""
    gf_i, gf_t = fusion_backprop(out.grads.fused, e_i, e_t, renormalize)
    return out.grads.images + gf_i, out.grads.texts + gf_t


def train(
    config: TrainConfig,
    pairs: list[SyntheticPair],
    second_pairs: list[SyntheticPair] | None = None,
    checkpoint_path: str | Path | None = None,
    resume_from: "str | Path | Checkpoint | None" = None,
    stop_after_epochs: int | None = None,
) -> tuple[TrainedModel, list[dict]]:
    """Run the full training loop; returns the model and one log record per step.

    RNG streams are isolated by purpose: [seed, 0] initializes parameters
    (image encoder first), [seed, 1, epoch] shuffles the main dataset, and
    [seed, 2, epoch] shuffles the mixed-objective dataset. The mixed term is
    skipped entirely when triplet_weight is 0, so a zero-weight run is
    bit-identical to the pure run.

    stop_after_epochs interrupts the run early (the checkpoint records how
    far it got); resume_from restores a checkpoint of the same config and
    continues until config.epochs. Because shuffles are keyed by epoch and
    the optimizer state round-trips exactly, an interrupted-then-resumed run
    reproduces the uninterrupted run bit for bit.
    """
    kind, drop = parse_variant(config.variant)
    _, x_img_all, x_txt_all = dataset_to_arrays(pairs)
    if x_img_all.shape[1] != config.encoder.d_in:
        raise ShapeMismatchError(
            f"dataset d_in={x_img_all.shape[1]} but encoder expects {config.encoder.d_in}"
        )
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

    use_mixed = kind == "gcl_plus_triplet" and config.triplet_weight > 0.0
    if use_mixed:
        if second_pairs is None:
            raise ConfigError("variant gcl_plus_triplet with triplet_weight > 0 needs second_pairs")
        _, x2_img_all, x2_txt_all = dataset_to_arrays(second_pairs)
        if len(second_pairs) < config.batch_size:
            raise ConfigError("second dataset must contain at least one full batch")

    init_rng = np.random.default_rng([config.seed, 0])
    image_encoder = build_encoder(config.encoder, init_rng)
    text_encoder = build_encoder(config.encoder, init_rng)
    params: dict[str, np.ndarray] = {}
    for prefix, enc in (("img", image_encoder), ("txt", text_encoder)):
        for key, value in enc.params.items():
            params[f"{prefix}.{key}"] = value
    if config.learnable_tau:
        params["log_tau"] = np.array(math.log(config.loss.tau))

    frozen_prefixes = []
    if config.freeze_image:
        frozen_prefixes.append("img.")
    if config.freeze_text:
        frozen_prefixes.append("txt.")
    optimized = {
        k: p for k, p in params.items() if not any(k.startswith(pre) for pre in frozen_prefixes)
    }
    opt_state = OptimizerState.initialize(optimized, weight_decay=config.weight_decay)

    start_epoch = 0
    if resume_from is not None:
        ckpt = resume_from if isinstance(resume_from, Checkpoint) else load_checkpoint(resume_from)
        expected = config_hash(config)
        if ckpt.config_hash != expected:
            raise ConfigError(
                f"checkpoint was written for config {ckpt.config_hash[:12]}..., "
                f"but the given config hashes to {expected[:12]}..."
            )
        if not (0 < ckpt.epochs_completed < config.epochs):
            raise ConfigError(
                f"cannot resume: checkpoint has {ckpt.epochs_completed} epochs completed "
                f"of {config.epochs} configured"
            )
        needed = set(params) | {"opt.step"}
        needed |= {f"opt.{kind_}.{k}" for kind_ in ("m", "v") for k in optimized}
        missing = sorted(needed - set(ckpt.arrays))
        if missing:
            raise ConfigError(f"checkpoint is missing arrays {missing}")
        for key in params:
            np.copyto(params[key], ckpt.arrays[key])
        for key in optimized:
            np.copyto(opt_state.m[key], ckpt.arrays[f"opt.m.{key}"])
            np.copyto(opt_state.v[key], ckpt.arrays[f"opt.v.{key}"])
        opt_state.step = int(ckpt.arrays["opt.step"].item())
        start_epoch = ckpt.epochs_completed

    last_epoch = config.epochs if stop_after_epochs is None else stop_after_epochs
    if not (start_epoch < last_epoch <= config.epochs):
        raise ConfigError(
            f"stop_after_epochs={stop_after_epochs} must leave work: "
            f"resuming at epoch {start_epoch} of {config.epochs}"
        )

    log: list[dict] = []
    step = start_epoch * steps_per_epoch
    for epoch in range(start_epoch, last_epoch):
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(n_total)
        if use_mixed:
            order2 = np.random.default_rng([config.seed, 2, epoch]).permutation(len(second_pairs))
            steps2 = len(second_pairs) // config.batch_size
        for b in range(steps_per_epoch):
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            tau_now = float(np.exp(params["log_tau"])) if config.learnable_tau else config.loss.tau
            loss_cfg = replace(config.loss, tau=tau_now)

            e_i, cache_i = image_encoder.forward(x_img_all[idx])
            e_t, cache_t = text_encoder.forward(x_txt_all[idx])
            fused = fuse_sum_rows(e_i, e_t, renormalize=config.renormalize_fusion)
            batch = TripletBatch.from_rows(e_i, e_t, fused, validate_norms=False)
            out = _loss_for_variant(kind, drop, batch, loss_cfg)

            value = out.value
            grad_i, grad_t = _encoder_output_grads(out, e_i, e_t, config.renormalize_fusion)
            grad_log_tau = out.grad_tau * tau_now

            record = {
                "step": step,
                "epoch": epoch,
                "loss": value,
                "lr": lr_at(step, sched),
                "tau": tau_now,
                "per_term": {k: v for k, v in sorted(out.per_term.items())},
            }

            param_grads: dict[str, np.ndarray] = {}
            if not config.freeze_image:
                for key, g in image_encoder.backward(cache_i, grad_i).items():
                    param_grads[f"img.{key}"] = g
            if not config.freeze_text:
                for key, g in text_encoder.backward(cache_t, grad_t).items():
                    param_grads[f"txt.{key}"] = g

            if use_mixed:
                idx2 = order2[(b % steps2) * config.batch_size : (b % steps2 + 1) * config.batch_size]
                e2_i, cache2_i = image_encoder.forward(x2_img_all[idx2])
                e2_t, cache2_t = text_encoder.forward(x2_txt_all[idx2])
                fused2 = fuse_sum_rows(e2_i, e2_t, renormalize=config.renormalize_fusion)
                batch2 = TripletBatch.from_rows(e2_i, e2_t, fused2, validate_norms=False)
                t_out = two_direction_loss(batch2, *MIXED_TASKS[step % 2], tau_now)
                t_value = t_out.value
                grad2_i, grad2_t = _encoder_output_grads(t_out, e2_i, e2_t, config.renormalize_fusion)
                w = config.triplet_weight
                value = value + w * t_value
                record["loss"] = value
                record["triplet_loss"] = t_value
                if not config.freeze_image:
                    for key, g in image_encoder.backward(cache2_i, grad2_i).items():
                        param_grads[f"img.{key}"] += w * g
                if not config.freeze_text:
                    for key, g in text_encoder.backward(cache2_t, grad2_t).items():
                        param_grads[f"txt.{key}"] += w * g

            if config.learnable_tau:
                param_grads["log_tau"] = np.array(grad_log_tau)

            if not math.isfinite(value):
                raise DivergenceDetectedError(f"loss became non-finite at step {step} (epoch {epoch})")
            bad = [k for k, g in param_grads.items() if not np.all(np.isfinite(g))]
            if bad:
                err = NonFiniteGradientError(f"non-finite gradients at step {step} in {bad}")
                err.state_dump = {
                    "step": step,
                    "epoch": epoch,
                    "loss": value,
                    "bad_keys": bad,
                    "param_norms": {k: float(np.linalg.norm(p)) for k, p in params.items()},
                }
                raise err

            adamw_step(optimized, param_grads, opt_state, record["lr"])
            if config.learnable_tau:
                clipped = float(
                    np.clip(params["log_tau"], math.log(config.tau_min), math.log(config.tau_max))
                )
                params["log_tau"][()] = clipped
            log.append(record)
            step += 1

    final_tau = float(np.exp(params["log_tau"])) if config.learnable_tau else config.loss.tau
    model = TrainedModel(
        config=config, image_encoder=image_encoder, text_encoder=text_encoder, tau=final_tau
    )
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path,
            params=params,
            opt_state=opt_state,
            cfg_hash=config_hash(config),
            seed=config.seed,
            epochs_completed=last_epoch,
        )
    return model, log


def save_checkpoint(
    path: str | Path,
    params: dict[str, np.ndarray],
    opt_state: OptimizerState,
    cfg_hash: str,
    seed: int,
    epochs_completed: int,
) -> None:
    """Write parameters and optimizer state in the GCLC binary format."""
    arrays: dict[str, np.ndarray] = dict(params)
    for key, m in opt_state.m.items():
        arrays[f"opt.m.{key}"] = m
    for key, v in opt_state.v.items():
        arrays[f"opt.v.{key}"] = v
    arrays["opt.step"] = np.array(float(opt_state.step))

    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(
            _CKPT_HEADER.pack(
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                bytes.fromhex(cfg_hash),
                seed,
                epochs_completed,
                len(arrays),
            )
        )
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype="<f8")
            encoded = name.encode()
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


@dataclass(frozen=True)
class Checkpoint:
    """Decoded GCLC contents."""

    config_hash: str
    seed: int
    epochs_completed: int
    arrays: dict[str, np.ndarray]

    def encoder_params(self, prefix: str) -> dict[str, np.ndarray]:
        skip = len(prefix) + 1
        return {k[skip:]: v for k, v in self.arrays.items() if k.startswith(prefix + ".")}


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a GCLC file; raises FormatError with a byte offset on corruption."""
    blob = Path(path).read_bytes()
    if len(blob) < _CKPT_HEADER.size:
        raise FormatError(
            f"truncated header: need {_CKPT_HEADER.size} bytes, file has {len(blob)}", offset=len(blob)
        )
    magic, version, hash_raw, seed, epochs_completed, n_arrays = _CKPT_HEADER.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}", offset=0)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    arrays: dict[str, np.ndarray] = {}
    offset = _CKPT_HEADER.size
    for _ in range(n_arrays):
        if offset + 2 > len(blob):
            raise FormatError("truncated array name length", offset=offset)
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        if offset + name_len + 1 > len(blob):
            raise FormatError("truncated array name", offset=offset)
        name = blob[offset : offset + name_len].decode()
        offset += name_len
        (ndim,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        if offset + 4 * ndim > len(blob):
            raise FormatError(f"truncated shape for array {name!r}", offset=offset)
        shape = struct.unpack_from(f"<{ndim}I", blob, offset) if ndim else ()
        offset += 4 * ndim
        count = int(np.prod(shape)) if ndim else 1
        nbytes = 8 * count
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


def model_from_checkpoint(config: TrainConfig, path: str | Path) -> TrainedModel:
    """Rebuild a TrainedModel from a config and its checkpoint file.

    The stored config hash must match the given config.
    """
    ckpt = load_checkpoint(path)
    expected = config_hash(config)
    if ckpt.config_hash != expected:
        raise ConfigError(
            f"checkpoint was written for config {ckpt.config_hash[:12]}..., "
            f"but the given config hashes to {expected[:12]}..."
        )
    if config.encoder.hidden is None:
        image_encoder = LinearEncoder(config.encoder, ckpt.encoder_params("img"))
        text_encoder = LinearEncoder(config.encoder, ckpt.encoder_params("txt"))
    else:
        image_encoder = MlpEncoder(config.encoder, ckpt.encoder_params("img"))
        text_encoder = MlpEncoder(config.encoder, ckpt.encoder_params("txt"))
    tau = float(np.exp(ckpt.arrays["log_tau"])) if "log_tau" in ckpt.arrays else config.loss.tau
    return TrainedModel(config=config, image_encoder=image_encoder, text_encoder=text_encoder, tau=tau)
