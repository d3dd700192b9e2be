"""Dataset ingestion and synthesis at desk scale.

Two on-disk formats are supported: IDX containers for byte images and
`x0,x1` CSV point clouds for 2-D data, tied together by a small JSON
manifest naming the train/test/OoD files. Synthetic 2-D families provide
deterministic train/OoD pairs for end-to-end tests.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .seeding import rng_for

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class Dataset:
    """Immutable (N, C, H, W) tensor with a value-domain tag.

    `discrete` data holds integral values in [0, 255]; `continuous` data is
    unrestricted real. Flows train on continuous data only, so discrete
    datasets pass through `dequantize` first.
    """

    x: np.ndarray
    domain: str = "continuous"  # "discrete" | "continuous"
    name: str = ""
    split: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 4 or self.x.shape[0] < 1:
            raise DataError(f"dataset must be a nonempty (N, C, H, W) array, got {self.x.shape}")
        if self.domain not in ("discrete", "continuous"):
            raise DataError(f"unknown domain tag {self.domain!r}")
        if not np.all(np.isfinite(self.x)):
            raise DataError(f"dataset holds {int((~np.isfinite(self.x)).sum())} non-finite value(s)")
        if self.domain == "discrete":
            if not np.all(self.x == np.rint(self.x)):
                raise DataError("discrete dataset holds non-integral values")
            if self.x.min() < 0 or self.x.max() > 255:
                raise DataError("discrete dataset values must lie in [0, 255]")

    @property
    def num_samples(self) -> int:
        return self.x.shape[0]


# -- IDX container ------------------------------------------------------------


def read_idx(path) -> np.ndarray:
    """Byte-exact parse of an IDX file (unsigned-byte element type)."""
    blob = Path(path).read_bytes()
    if len(blob) < 4:
        raise DataError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", blob[:4])
    if magic not in (IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS):
        raise DataError(f"{path}: bad IDX magic 0x{magic:08x}")
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise DataError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", blob[4:header_len])
    count = int(np.prod(dims)) if dims else 0
    if dims and dims[0] == 0:
        raise DataError(f"{path}: IDX header declares 0 items")
    payload = blob[header_len:]
    if len(payload) != count:
        raise DataError(f"{path}: expected {count} payload bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(path, name: str = "", split: str = "") -> Dataset:
    """Load an IDX image file as a discrete (N, 1, H, W) dataset."""
    arr = read_idx(path)
    if arr.ndim != 3:
        raise DataError(
            f"{path}: expected a 3-D image container, got {arr.ndim}-D "
            "(label files parse with read_idx)"
        )
    n, h, w = arr.shape
    return Dataset(arr.reshape(n, 1, h, w).astype(np.float64), "discrete", name, split)


def save_idx(path, images: np.ndarray) -> None:
    """Write (N, 1, H, W) or (N, H, W) integral data as an IDX image file."""
    arr = np.asarray(images)
    if arr.ndim == 4:
        if arr.shape[1] != 1:
            raise DataError("IDX image files are single-channel")
        arr = arr[:, 0]
    if arr.ndim != 3:
        raise DataError(f"expected (N, H, W) images, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 255 or not np.all(arr == np.rint(arr)):
        raise DataError("IDX payload must be integral in [0, 255]")
    n, h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", IDX_MAGIC_IMAGES))
        fh.write(struct.pack(">3I", n, h, w))
        fh.write(arr.astype(np.uint8).tobytes())


# -- preprocessing ---------------------------------------------------------------


def dequantize(d: Dataset, seed: int) -> Dataset:
    """Map byte values to [0, 1) by adding uniform noise: (x + u) / 256."""
    if d.domain != "discrete":
        raise UsageError("dequantize expects a discrete dataset")
    u = rng_for(seed, "dequantize").random(d.x.shape)
    return Dataset((d.x + u) / 256.0, "continuous", d.name, d.split)


# -- synthetic 2-D families ----------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    family: str  # two_moons | rings | gaussian_mixture | shifted_gaussian
    count: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be positive, got {self.count}")


def make_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic 2-D generators, embedded as (N, 1, 1, 2) tensors."""
    rng = rng_for(spec.seed, "synthetic", spec.family)
    if spec.family == "two_moons":
        pts = _two_moons(spec.count, rng, **spec.params)
    elif spec.family == "rings":
        pts = _rings(spec.count, rng, **spec.params)
    elif spec.family == "gaussian_mixture":
        pts = _gaussian_mixture(spec.count, rng, **spec.params)
    elif spec.family == "shifted_gaussian":
        pts = _shifted_gaussian(spec.count, rng, **spec.params)
    else:
        raise ConfigError(f"unknown synthetic family {spec.family!r}")
    return Dataset(pts.reshape(-1, 1, 1, 2), "continuous", name=spec.family)


def _bounded_jitter(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """Isotropic Gaussian jitter, radially clipped at 2 sigma so generated
    clouds have a hard geometric envelope."""
    g = rng.normal(0.0, sigma, size=(n, 2))
    norm = np.linalg.norm(g, axis=1, keepdims=True)
    cap = 2.0 * sigma
    scale = np.where(norm > cap, cap / np.where(norm == 0, 1.0, norm), 1.0)
    return g * scale


def _two_moons(n: int, rng, radius: float = 1.0, noise: float = 0.05) -> np.ndarray:
    """Two interleaved half-circles, symmetric about the origin; every point
    stays within 1.5 * radius of the origin."""
    t = rng.random(n) * np.pi
    upper = rng.random(n) < 0.5
    base = np.stack([np.cos(t) - 0.5, np.sin(t) - 0.25], axis=1)
    base[~upper] *= -1.0
    pts = 0.9 * radius * base + _bounded_jitter(rng, n, noise * radius)
    return pts


def _rings(n: int, rng, radius: float = 1.0, noise: float = 0.05) -> np.ndarray:
    t = rng.random(n) * 2.0 * np.pi
    inner = rng.random(n) < 0.5
    r = np.where(inner, 0.5 * radius, radius)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    return pts + _bounded_jitter(rng, n, noise * radius)


def _gaussian_mixture(n: int, rng, means=((0.0, 0.0),), sigmas=(1.0,),
                      weights=None) -> np.ndarray:
    means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
    sigmas = np.asarray(sigmas, dtype=np.float64).ravel()
    if len(sigmas) != len(means):
        raise ConfigError("means and sigmas must align")
    if weights is None:
        weights = np.full(len(means), 1.0 / len(means))
    weights = np.asarray(weights, dtype=np.float64)
    if abs(weights.sum() - 1.0) > 1e-9 or (weights < 0).any():
        raise ConfigError("mixture weights must be a probability vector")
    comp = rng.choice(len(means), size=n, p=weights)
    return means[comp] + rng.normal(size=(n, 2)) * sigmas[comp, None]


def _shifted_gaussian(n: int, rng, shift=(0.0, 0.0), sigma: float = 1.0) -> np.ndarray:
    shift = np.asarray(shift, dtype=np.float64).ravel()
    if shift.shape != (2,):
        raise ConfigError("shift must be a 2-vector")
    return shift + rng.normal(size=(n, 2)) * sigma


# -- CSV point clouds and the dataset manifest -----------------------------------------


def save_points_csv(path, d: Dataset) -> None:
    pts = d.x.reshape(d.num_samples, -1)
    if pts.shape[1] != 2:
        raise DataError(f"point-cloud CSV stores 2-D data, got {pts.shape[1]} dims")
    with open(path, "w", newline="") as fh:
        fh.write("x0,x1\n")
        for a, b in pts:
            fh.write(f"{float(a)!r},{float(b)!r}\n")


def load_points_csv(path, name: str = "", split: str = "") -> Dataset:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty CSV")
    if rows[0][1] == ["x0", "x1"]:
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: CSV has a header but no points")
    pts = []
    for line, row in rows:
        try:
            a, b = row
            pts.append([float(a), float(b)])
        except ValueError:
            raise DataError(f"{path}: line {line} is not two numbers: {row!r}") from None
    return Dataset(np.array(pts).reshape(-1, 1, 1, 2), "continuous", name, split)


def load_data_manifest(path) -> dict[str, Dataset]:
    """Read a manifest JSON naming dataset files by split.

    Schema: {"name": ..., "format": "csv"|"idx", "splits": {"train": file,
    "test": file, "ood": file, ...}}. Paths resolve relative to the manifest.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"data manifest {p} not found or not a file")
    try:
        doc = json.loads(p.read_text())
    except (ValueError, RecursionError) as exc:  # undecodable bytes, bad or deep JSON
        raise ConfigError(f"data manifest {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"data manifest {p} must be a JSON object")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "idx"):
        raise ConfigError(f"unknown dataset format {fmt!r}")
    name = doc.get("name", p.stem)
    splits = doc.get("splits")
    if not isinstance(splits, dict) or not splits:
        raise ConfigError(f"{p}: manifest must map split names to files")
    out = {}
    for split, rel in splits.items():
        if not isinstance(rel, str):
            raise ConfigError(f"{p}: split {split!r} must name a file, got {rel!r}")
        fpath = p.parent / rel
        if not fpath.is_file():
            raise ConfigError(f"{p}: split {split!r} file {fpath} not found or not a file")
        if fmt == "csv":
            out[split] = load_points_csv(fpath, name, split)
        else:
            out[split] = load_idx(fpath, name, split)
    return out
