"""Model ensemble: sample discrete architectures from the searched
distribution, retrain each one, and score data by the mean log-likelihood
minus its variance across members. Every member weighs 1/M, as in the search
objective, so the score estimates WAIC under the searched distribution.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, NadsError
from .flow_core import FlowModel, decode_value, load_checkpoint, save_checkpoint
from .search_space import ArchDistribution, sample_discrete
from .trainer import RetrainConfig, retrain
from .waic import LogLikMatrix, waic_per_sample
from .seeding import child_seed, rng_for


@dataclass
class EnsembleMember:
    model: FlowModel  # built for one architecture (FlowModel's `arch`), which it runs

    def __post_init__(self):
        if self.model.arch is None:
            raise ConfigError("an ensemble member needs a model built for one architecture")

    def log_prob(self, x: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return self.model.log_prob(x).data


@dataclass
class Ensemble:
    members: list[EnsembleMember]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble must have at least one member")

    @property
    def in_shape(self) -> tuple[int, int, int]:
        return self.members[0].model.config.in_shape


def build_ensemble(dist: ArchDistribution, data: np.ndarray, config: RetrainConfig,
                   num_members: int | None = None, seed: int = 0,
                   provenance: dict | None = None) -> Ensemble:
    """Draw discrete architectures and retrain each with an independent seed.
    Duplicate draws are kept as distinct members, so an architecture counts
    as often as it was drawn; a member's failure is raised again, naming it."""
    m = config.ensemble_size if num_members is None else num_members
    if m < 1:
        raise ConfigError("ensemble size must be at least 1")
    members: list[EnsembleMember] = []
    for j in range(m):
        arch = sample_discrete(dist, child_seed(seed, "arch", j))
        member_cfg = replace(config, seed=child_seed(seed, "member", j))
        try:
            model = retrain(arch, data, member_cfg)
        except NadsError as exc:
            raise type(exc)(f"retraining member {j} failed: {exc} ({len(members)} "
                            "member(s) completed before the failure)") from exc
        members.append(EnsembleMember(model))
    info = {"seed": seed, "num_members": m, "tau": dist.tau}
    info.update(provenance or {})
    return Ensemble(members, provenance=info)


def member_logliks(ens: Ensemble, x: np.ndarray) -> LogLikMatrix:
    """Every member's per-sample log-likelihood, one column per member;
    `waic.waic_per_sample` scores it."""
    x = np.asarray(x, dtype=np.float64)
    cols = [mem.log_prob(x) for mem in ens.members]
    return LogLikMatrix(np.stack(cols, axis=1))


def ensemble_waic(ens: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-sample score: mean log-likelihood across members minus its variance."""
    return waic_per_sample(member_logliks(ens, x)).score


def generate_samples(ens: Ensemble, count: int, temperature: float = 1.0, seed: int = 0,
                     clip_range: tuple[float, float] | None = None) -> np.ndarray:
    """Draw latents at the given temperature and invert them to data space,
    each sample through a member chosen uniformly. With temperature 0 every
    draw is the latent origin's image."""
    if count < 1:
        raise ConfigError("count must be at least 1")
    if not (np.isfinite(temperature) and temperature >= 0):
        raise ConfigError(f"temperature must be finite and nonnegative, got {temperature}")
    members = ens.members
    assignment = rng_for(seed, "member_choice").choice(len(members), size=count)

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
            out[idx] = mem.model.inverse(zs)
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
        entries.append({"checkpoint": ckpt.name,
                        "sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest()})
    manifest = {"members": entries, "provenance": ens.provenance}
    path = d / "ensemble.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_ensemble(manifest_path) -> Ensemble:
    """Read a manifest written by save_ensemble. Each member checkpoint is
    read once, and its bytes must match the sha256 recorded for it before
    they are decoded; the checkpoint holds the member's architecture, and its
    flow config must equal the first member's. The `weight`, `arch_ops`,
    `arch_text` and `raw_log_mass` keys that older manifests carry are
    ignored."""
    path = Path(manifest_path)
    if not path.is_file():
        raise FileNotFoundError(f"ensemble manifest {path} not found or not a file")
    try:  # decode_value's ConfigError is a ValueError; deep JSON is a RecursionError
        manifest = json.loads(path.read_text())
        entries = [(decode_value(e["checkpoint"], str, f"members[{i}].checkpoint"),
                    decode_value(e["sha256"], str, f"members[{i}].sha256"))
                   for i, e in enumerate(manifest["members"])]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DataError(f"{path} is not a valid ensemble manifest: {exc!r}") from exc
    members = []
    for name, sha256 in entries:
        ckpt = path.parent / name
        if not ckpt.is_file():
            raise FileNotFoundError(f"member checkpoint {ckpt} not found or not a file")
        blob = ckpt.read_bytes()
        if hashlib.sha256(blob).hexdigest() != sha256:
            raise DataError(f"member checkpoint {ckpt} does not match its recorded sha256")
        model = load_checkpoint(ckpt, blob)
        if model.arch is None:
            raise DataError(f"member checkpoint {ckpt} holds a supernet, not one architecture")
        if members and model.config != members[0].model.config:
            raise DataError(f"member checkpoint {ckpt} holds a different flow config than "
                            "the first member's")
        members.append(EnsembleMember(model))
    return Ensemble(members, provenance=manifest.get("provenance", {}))
