"""Posterior-weighted model ensemble: sample discrete architectures from the
searched distribution, retrain each one, and score data by the weighted mean
log-likelihood minus its weighted variance across members.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NadsError
from .flow_core import FlowModel, load_checkpoint, save_checkpoint
from .search_space import (
    ArchDistribution,
    ArchSample,
    arch_log_prob,
    sample_discrete,
    serialize_architecture,
)
from .trainer import RetrainConfig, retrain
from .waic import LogLikMatrix, waic_per_sample
from .seeding import child_seed, rng_for


@dataclass
class EnsembleMember:
    arch: ArchSample
    model: FlowModel
    raw_log_mass: float  # log posterior mass of the architecture
    weight: float = 0.0

    def log_prob(self, x: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.model.log_prob(x, self.arch).data


@dataclass
class Ensemble:
    members: list[EnsembleMember]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble must have at least one member")
        total = sum(m.weight for m in self.members)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"member weights sum to {total!r}, expected 1")

    @property
    def weights(self) -> np.ndarray:
        return np.array([m.weight for m in self.members])

    @property
    def in_shape(self) -> tuple[int, int, int]:
        return self.members[0].model.config.in_shape


class EnsembleBuildError(NadsError, RuntimeError):
    """Raised when a member fails to retrain; carries the completed members."""

    def __init__(self, message: str, completed: list[EnsembleMember]):
        super().__init__(f"{message} ({len(completed)} member(s) completed before the failure)")
        self.completed = completed


def normalized_weights(log_masses: np.ndarray) -> np.ndarray:
    """Posterior-mass weights normalized in log space to avoid underflow."""
    v = np.asarray(log_masses, dtype=np.float64)
    shifted = v - v.max()
    w = np.exp(shifted)
    return w / w.sum()


def build_ensemble(dist: ArchDistribution, data: np.ndarray, config: RetrainConfig,
                   num_members: int | None = None, seed: int = 0,
                   warm_start: FlowModel | None = None,
                   provenance: dict | None = None) -> Ensemble:
    """Draw discrete architectures, retrain each with an independent seed, and
    weight members by their (normalized) posterior mass. Duplicate draws are
    kept as distinct members; `warm_start` seeds every member's parameters
    from an existing model instead of a fresh initialization."""
    m = config.ensemble_size if num_members is None else num_members
    if m < 1:
        raise ConfigError("ensemble size must be at least 1")
    members: list[EnsembleMember] = []
    for j in range(m):
        arch = sample_discrete(dist, child_seed(seed, "arch", j))
        member_cfg = replace(config, seed=child_seed(seed, "member", j))
        try:
            model = retrain(arch, data, member_cfg, init_from=warm_start)
        except NadsError as exc:
            raise EnsembleBuildError(f"retraining member {j} failed: {exc}", members) from exc
        members.append(EnsembleMember(arch, model, raw_log_mass=arch_log_prob(dist, arch)))
    w = normalized_weights(np.array([mem.raw_log_mass for mem in members]))
    for mem, wi in zip(members, w):
        mem.weight = float(wi)
    info = {"seed": seed, "num_members": m, "tau": dist.tau,
            "warm_start": warm_start is not None}
    info.update(provenance or {})
    return Ensemble(members, provenance=info)


def member_logliks(ens: Ensemble, x: np.ndarray) -> LogLikMatrix:
    """Every member's per-sample log-likelihood, one column per member,
    weighted by posterior mass; `waic.waic_per_sample` scores it."""
    x = np.asarray(x, dtype=np.float64)
    cols = [mem.log_prob(x) for mem in ens.members]
    return LogLikMatrix(np.stack(cols, axis=1), weights=ens.weights)


def ensemble_waic(ens: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-sample score: weighted mean log-likelihood minus its variance."""
    return waic_per_sample(member_logliks(ens, x)).score


def generate_samples(source, count: int, temperature: float = 1.0, seed: int = 0,
                     clip_range: tuple[float, float] | None = None) -> np.ndarray:
    """Draw latents at the given temperature and invert them to data space.

    `source` is an Ensemble (members chosen by weight per sample) or a single
    EnsembleMember. With temperature 0 every draw is the latent origin's
    image."""
    if count < 1:
        raise ConfigError("count must be at least 1")
    if temperature < 0:
        raise ConfigError("temperature must be nonnegative")
    if isinstance(source, EnsembleMember):
        members = [source]
        assignment = np.zeros(count, dtype=int)
    elif isinstance(source, Ensemble):
        members = source.members
        rng = rng_for(seed, "member_choice")
        assignment = rng.choice(len(members), size=count, p=source.weights)
    else:
        raise ConfigError(f"cannot sample from {type(source).__name__}")

    c, h, w = members[0].model.config.in_shape
    out = np.empty((count, c, h, w))
    # Latents are drawn one sample at a time in sample order, so the values do
    # not depend on how samples are grouped; each member then inverts all of
    # its samples in one call.
    rng_z = rng_for(seed, "latents")
    draws = [
        [temperature * rng_z.normal(size=(1,) + shape)
         for shape in members[j].model.config.latent_shapes()]
        for j in assignment
    ]
    for j, mem in enumerate(members):
        idx = np.flatnonzero(assignment == j)
        if len(idx):
            zs = [np.concatenate(level) for level in zip(*(draws[i] for i in idx))]
            out[idx] = mem.model.inverse(zs, mem.arch)
    if clip_range is not None:
        out = np.clip(out, clip_range[0], clip_range[1])
    return out


# -- on-disk manifest ------------------------------------------------------------


def save_ensemble(ens: Ensemble, directory) -> Path:
    """Write member checkpoints and the JSON manifest; returns the manifest path."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    entries = []
    for j, mem in enumerate(ens.members):
        ckpt = d / f"member_{j:02d}.nadsflw"
        save_checkpoint(mem.model, ckpt)
        dist_like = ArchDistribution(
            np.zeros_like(mem.arch.weights),
            tau=1.0,
            ops=mem.model.config.ops,
            topology=mem.model.config.topology,
            num_cell_groups=mem.model.config.num_cell_groups(),
        )
        entries.append(
            {
                "checkpoint": ckpt.name,
                "arch_ops": [int(k) for k in mem.arch.argmax_ops()],
                "arch_text": serialize_architecture(mem.arch, dist_like),
                "raw_log_mass": mem.raw_log_mass,
                "weight": mem.weight,
                "sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            }
        )
    manifest = {"members": entries, "provenance": ens.provenance}
    path = d / "ensemble.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_ensemble(manifest_path) -> Ensemble:
    """Read a manifest written by save_ensemble. Each member checkpoint must
    match the sha256 recorded for it before it is loaded."""
    path = Path(manifest_path)
    if not path.exists():
        raise FileNotFoundError(f"ensemble manifest {path} not found")
    try:
        manifest = json.loads(path.read_text())
        entries = [(e["checkpoint"], e["sha256"], e["arch_ops"], float(e["raw_log_mass"]),
                    float(e["weight"])) for e in manifest["members"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is not a valid ensemble manifest: {exc!r}") from exc
    members = []
    for name, sha256, chosen, raw_log_mass, weight in entries:
        ckpt = path.parent / name
        if not ckpt.exists():
            raise FileNotFoundError(f"member checkpoint {ckpt} not found")
        if hashlib.sha256(ckpt.read_bytes()).hexdigest() != sha256:
            raise DataError(f"member checkpoint {ckpt} does not match its recorded sha256")
        model = load_checkpoint(ckpt)
        rows = model.config.num_cell_groups() * model.config.topology.num_edges
        k = len(model.config.ops)
        if not (isinstance(chosen, list) and len(chosen) == rows
                and all(type(op) is int and 0 <= op < k for op in chosen)):
            raise DataError(f"{path}: arch_ops of {name} must be {rows} integers in "
                            f"[0, {k}), got {chosen!r}")
        w = np.zeros((rows, k))
        w[np.arange(rows), chosen] = 1.0
        members.append(EnsembleMember(ArchSample("discrete", w), model,
                                      raw_log_mass=raw_log_mass, weight=weight))
    return Ensemble(members, provenance=manifest.get("provenance", {}))
