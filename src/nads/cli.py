"""Command-line pipeline: search, ensemble, score, eval, generate.

Every command resolves its configuration from (in increasing precedence) a
named profile, a JSON config file, and command-line flags; writes its
artifacts plus a run manifest into --out-dir; and funnels all randomness
through one root seed (--seed, config "seed", or $NADS_SEED).

Exit codes: 0 ok, 2 configuration error, 3 numeric failure, 4 missing
artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    dequantize,
    load_data_manifest,
    load_idx,
    load_points_csv,
    save_idx,
    save_points_csv,
)
from .ensemble import (
    build_ensemble,
    generate_samples,
    load_ensemble,
    member_logliks,
    save_ensemble,
)
from .errors import ConfigError, DataError, NadsError, NumericError
from .flow_core import FlowConfig, decode_config, decode_value, save_checkpoint
from .ood_eval import ScoredSets, evaluate, write_report_files
from .search_space import ArchDistribution, serialize_architecture
from .trainer import RetrainConfig, SearchConfig, search, write_trace_csv
from .waic import read_report_csv, waic_per_sample, write_loglik_csv, write_report_csv
from .seeding import child_seed


class ArtifactMissingError(NadsError, FileNotFoundError):
    pass


# -- configuration ---------------------------------------------------------------

PROFILES: dict[str, dict] = {
    # Reference-scale recipe (impractical without accelerators; documented default).
    "paper": {
        "flow": {"in_shape": [3, 64, 64], "num_blocks": 4, "flows_per_block": 32},
        "search": {"learning_rate": 1e-5, "batch_size": 4, "iterations": 10_000,
                   "num_arch_samples": 4, "tau": {"kind": "constant", "tau0": 1.5}},
        "retrain": {"iterations": 150_000, "learning_rate": 1e-5, "batch_size": 4,
                    "ensemble_size": 5},
    },
    # Desk-scale image default.
    "desk": {
        "flow": {"in_shape": [1, 8, 8], "num_blocks": 2, "flows_per_block": 4},
        "search": {"learning_rate": 1e-5, "batch_size": 4, "iterations": 2000,
                   "num_arch_samples": 4, "tau": {"kind": "constant", "tau0": 1.5}},
        "retrain": {"iterations": 2000, "learning_rate": 1e-5, "batch_size": 4,
                    "ensemble_size": 3},
    },
    # 2-D synthetic data, two candidate ops, fast enough for CI. The slow
    # phi rate lets the shared weights learn the conditional structure before
    # the distribution commits.
    "toy2d": {
        "flow": {"in_shape": [2, 1, 1], "num_blocks": 1, "flows_per_block": 4,
                 "squeeze": False, "ops": ["zero", "identity"],
                 "num_nodes": 3, "edges": [[0, 1], [1, 2]]},
        "search": {"learning_rate": 1e-2, "batch_size": 64, "iterations": 600,
                   "num_arch_samples": 4, "tau": {"kind": "constant", "tau0": 1.5},
                   "phi_learning_rate": 2e-3},
        "retrain": {"iterations": 800, "learning_rate": 1e-2, "batch_size": 128,
                    "ensemble_size": 3},
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def resolve_config(args) -> dict:
    doc: dict = {}
    profile = getattr(args, "profile", None)
    if profile:
        if profile not in PROFILES:
            raise ConfigError(f"unknown profile {profile!r} (have {sorted(PROFILES)})")
        doc = _deep_merge(doc, PROFILES[profile])
    config_path = getattr(args, "config", None)
    if config_path:
        p = Path(config_path)
        if not p.is_file():
            raise ConfigError(f"config file {p} not found or not a file")
        try:
            loaded = json.loads(p.read_text())
        except (ValueError, RecursionError) as exc:  # undecodable bytes, bad or deep JSON
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(
                f"config file {p} must hold a JSON object, got {type(loaded).__name__}"
            )
        doc = _deep_merge(doc, loaded)
    if not doc:
        doc = dict(PROFILES["desk"])
    return doc


def resolve_seed(args, doc: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in doc:
        return decode_value(doc["seed"], int, "seed")
    env = os.environ.get("NADS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"NADS_SEED={env!r} is not an integer") from exc
    return 0


def flow_config_from(doc: dict) -> FlowConfig:
    return FlowConfig.from_dict(doc["flow"] if "flow" in doc else {})


def _decode_section(cls, doc: dict, name: str, seed: int, args, flags):
    """Decode section `name` of `doc` into the config dataclass `cls`. Each
    (flag, key) CLI flag given in `args` overrides the section's key; the
    flow and the seed come from the rest of the configuration."""
    section = doc[name] if name in doc else {}
    if isinstance(section, dict):  # anything else is decode_config's error to report
        section = {**section, **{key: getattr(args, flag) for flag, key in flags
                                 if getattr(args, flag, None) is not None}}
    return decode_config(cls, section, name, flow=flow_config_from(doc), seed=seed)


def search_config_from(doc: dict, seed: int, args) -> SearchConfig:
    return _decode_section(SearchConfig, doc, "search", seed, args,
                           [("iterations", "iterations"), ("learning_rate", "learning_rate"),
                            ("batch_size", "batch_size"), ("arch_samples", "num_arch_samples")])


def retrain_config_from(doc: dict, seed: int, args) -> RetrainConfig:
    return _decode_section(RetrainConfig, doc, "retrain", seed, args,
                           [("iterations", "iterations"), ("learning_rate", "learning_rate"),
                            ("batch_size", "batch_size"), ("members", "ensemble_size")])


# -- shared plumbing ------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_run_manifest(out_dir: Path, command: str, config: dict, seed: int,
                       inputs: list[str], artifacts: list[Path], started: float) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": sorted(str(p) for p in inputs),
        "out_dir": str(out_dir),
        "artifacts": {p.name: _sha256(p) for p in artifacts if p.exists()},
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _load_training_data(manifest_path: str, seed: int, split: str = "train") -> Dataset:
    datasets = load_data_manifest(manifest_path)
    if split not in datasets:
        raise ConfigError(f"data manifest has no {split!r} split (has {sorted(datasets)})")
    d = datasets[split]
    if d.domain == "discrete":
        d = dequantize(d, child_seed(seed, "dequantize", split))
    return d


def _adapt_shape(x: np.ndarray, in_shape: tuple[int, int, int]) -> np.ndarray:
    """Reshape samples to the model's (C, H, W) when the layouts differ but
    the dimensionality agrees (2-D point clouds load as (N, 1, 1, 2))."""
    if tuple(x.shape[1:]) == tuple(in_shape):
        return x
    if int(np.prod(x.shape[1:])) != int(np.prod(in_shape)):
        raise DataError(
            f"dataset samples {x.shape[1:]} cannot be viewed as model input {tuple(in_shape)}"
        )
    return x.reshape((x.shape[0],) + tuple(in_shape))


def _load_score_data(path: str, split: str, seed: int) -> Dataset:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"dataset {p} not found or not a file")
    if p.suffix == ".json":
        return _load_training_data(path, seed, split)
    if p.suffix == ".csv":
        return load_points_csv(p)
    d = load_idx(p)
    return dequantize(d, child_seed(seed, "dequantize", p.name))


def save_distribution(dist: ArchDistribution, flow: FlowConfig, path: Path) -> None:
    """Write phi.json: the logits and temperature, and the flow config whose
    op menu, cell topology and cell-group count lay out the logits."""
    doc = {"logits": dist.logits.tolist(), "tau": dist.tau, "flow": flow.to_dict()}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_distribution(path: Path) -> tuple[ArchDistribution, FlowConfig]:
    """Read a phi.json written by save_distribution. Its fields go through the
    checked config decoders, the logits and temperature must be finite, and
    the logits must have one row per cell edge of the flow and one column
    per op."""
    if not path.is_file():
        raise ArtifactMissingError(f"distribution checkpoint {path} not found or not a file")
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # undecodable bytes, bad or deep JSON
        raise ConfigError(f"{path} is not a valid distribution file: {exc!r}") from exc
    keys = {"logits", "tau", "flow"}
    if not isinstance(doc, dict) or set(doc) != keys:
        raise ConfigError(f"{path} must be an object with exactly the keys {sorted(keys)} "
                          "(the op menu and topology live in its flow)")
    flow = FlowConfig.from_dict(doc["flow"])
    logits = decode_value(doc["logits"], tuple[tuple[float, ...], ...], "phi.logits")
    if len({len(row) for row in logits}) > 1:
        raise ConfigError(f"{path}: logits rows differ in length")
    dist = ArchDistribution(np.array(logits), decode_value(doc["tau"], float, "phi.tau"),
                            flow.ops, flow.topology, flow.num_cell_groups())
    if not (np.isfinite(dist.logits).all() and np.isfinite(dist.tau)):
        raise ConfigError(f"{path}: logits and tau must be finite")
    return dist, flow


# -- commands ----------------------------------------------------------------------------


def cmd_search(args) -> int:
    started = time.time()
    doc = resolve_config(args)
    seed = resolve_seed(args, doc)
    config = search_config_from(doc, seed, args)
    train = _load_training_data(args.data, seed)
    x = _adapt_shape(train.x, config.flow.in_shape)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.dry_run:
        write_run_manifest(out_dir, "search", doc, seed, [args.data], [], started)
        print("dry-run ok: configuration and data validated")
        return 0

    result = search(x, config)

    phi_path = out_dir / "phi.json"
    save_distribution(result.dist, config.flow, phi_path)
    theta_path = out_dir / "theta.nadsflw"
    save_checkpoint(result.model, theta_path)
    trace_path = out_dir / "trace.csv"
    write_trace_csv(result.trace, trace_path)
    arch_path = out_dir / "architecture.txt"
    arch_path.write_text(serialize_architecture(result.dist))
    write_run_manifest(out_dir, "search", doc, seed, [args.data],
                       [phi_path, theta_path, trace_path, arch_path], started)
    if result.halted_at is not None:
        print(f"search halted by the divergence guard at step {result.halted_at}", file=sys.stderr)
        return 3
    print(f"search finished: {len(result.trace)} steps, phi -> {phi_path}")
    return 0


def cmd_ensemble(args) -> int:
    started = time.time()
    doc = resolve_config(args)
    seed = resolve_seed(args, doc)
    dist, flow = load_distribution(Path(args.phi))
    doc_with_flow = _deep_merge(doc, {"flow": flow.to_dict()})
    config = retrain_config_from(doc_with_flow, seed, args)
    train = _load_training_data(args.data, seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ens = build_ensemble(dist, _adapt_shape(train.x, config.flow.in_shape), config,
                         seed=child_seed(seed, "ensemble"),
                         provenance={"phi": Path(args.phi).name,
                                     "phi_sha256": _sha256(Path(args.phi)),
                                     "root_seed": seed})
    manifest_path = save_ensemble(ens, out_dir)
    artifacts = [manifest_path] + sorted(out_dir.glob("member_*.nadsflw"))
    write_run_manifest(out_dir, "ensemble", doc_with_flow, seed,
                       [args.phi, args.data], artifacts, started)
    halts = [f"member {j} at step {mem.model.halted_at}"
             for j, mem in enumerate(ens.members) if mem.model.halted_at is not None]
    if halts:
        print(f"retraining halted by the divergence guard: {', '.join(halts)}", file=sys.stderr)
        return 3
    print(f"ensemble of {len(ens.members)} members -> {manifest_path}")
    return 0


def cmd_score(args) -> int:
    started = time.time()
    doc = resolve_config(args)
    seed = resolve_seed(args, doc)
    ens = _load_ensemble(args.ensemble)
    data = _load_score_data(args.data, args.split, seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    x = _adapt_shape(data.x, ens.in_shape)
    ll = member_logliks(ens, x)
    report = waic_per_sample(ll)
    ll_path = out_dir / "loglik.csv"
    write_loglik_csv(ll, ll_path)
    report_path = out_dir / "waic_report.csv"
    write_report_csv(report, report_path)
    write_run_manifest(out_dir, "score", doc, seed, [args.ensemble, args.data],
                       [ll_path, report_path], started)
    print(f"scored {data.num_samples} samples -> {report_path}")
    return 0


def _load_ensemble(path: str):
    try:
        return load_ensemble(path)
    except FileNotFoundError as exc:
        raise ArtifactMissingError(str(exc)) from exc


def _read_report(path: str):
    if not Path(path).is_file():
        raise ArtifactMissingError(f"WAIC report {path} not found or not a file")
    return read_report_csv(path)


def cmd_eval(args) -> int:
    started = time.time()
    doc = resolve_config(args)
    seed = resolve_seed(args, doc)
    in_report, out_report = _read_report(args.in_report), _read_report(args.out_report)
    scored = ScoredSets(in_scores=in_report.score, out_scores=out_report.score)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    detection = evaluate(scored, num_bins=args.bins)
    paths = write_report_files(detection, out_dir)
    write_run_manifest(out_dir, "eval", doc, seed, [args.in_report, args.out_report],
                       list(paths.values()), started)
    print(
        f"fpr@95tpr={detection.fpr_at_95_tpr:.4f} auroc={detection.auroc:.4f} "
        f"aupr={detection.aupr:.4f} -> {paths['report']}"
    )
    return 0


def cmd_generate(args) -> int:
    started = time.time()
    doc = resolve_config(args)
    seed = resolve_seed(args, doc)
    ens = _load_ensemble(args.ensemble)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    c, h, w = ens.in_shape
    fmt = args.format or ("csv" if c * h * w == 2 else "idx")
    if fmt == "idx" and c != 1:
        raise ConfigError(
            f"IDX output needs single-channel models, got {c} channels; use --format csv"
        )

    if fmt == "idx":
        batch = generate_samples(ens, args.count, args.temperature,
                                 child_seed(seed, "generate"), clip_range=(0.0, 1.0))
        quantized = np.clip(np.floor(batch * 256.0), 0, 255)
        out_path = out_dir / "samples.idx"
        save_idx(out_path, quantized)
    else:
        batch = generate_samples(ens, args.count, args.temperature,
                                 child_seed(seed, "generate"))
        out_path = out_dir / "samples.csv"
        save_points_csv(out_path, Dataset(batch.reshape(args.count, 1, 1, -1), "continuous"))
    write_run_manifest(out_dir, "generate", doc, seed, [args.ensemble], [out_path], started)
    print(f"{args.count} samples -> {out_path}")
    return 0


# -- entry point ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nads",
        description="Architecture-distribution search over invertible flows "
                    "with WAIC-scored out-of-distribution detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", required=True, help="directory for artifacts and the manifest")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--profile", help=f"named base profile: {', '.join(sorted(PROFILES))}")
        p.add_argument("--seed", type=int, help="root seed (fallback: config, then $NADS_SEED)")

    p = sub.add_parser("search", help="optimize the architecture distribution")
    common(p)
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--iterations", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--arch-samples", dest="arch_samples", type=int)
    p.add_argument("--dry-run", action="store_true", help="validate and write the manifest only")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("ensemble", help="sample architectures and retrain an ensemble")
    common(p)
    p.add_argument("--phi", required=True, help="phi.json from a search run")
    p.add_argument("--data", required=True, help="dataset manifest JSON")
    p.add_argument("--members", type=int, help="ensemble size")
    p.add_argument("--iterations", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("score", help="per-sample WAIC report for a dataset")
    common(p)
    p.add_argument("--ensemble", required=True, help="ensemble.json manifest")
    p.add_argument("--data", required=True, help="dataset manifest JSON, .csv, or IDX file")
    p.add_argument("--split", default="test", help="split name when --data is a manifest")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="detection metrics from two WAIC reports")
    common(p)
    p.add_argument("--in-report", dest="in_report", required=True,
                   help="WAIC report CSV for in-distribution data")
    p.add_argument("--out-report", dest="out_report", required=True,
                   help="WAIC report CSV for out-of-distribution data")
    p.add_argument("--bins", type=int, default=30, help="histogram bins")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("generate", help="draw samples from an ensemble")
    common(p)
    p.add_argument("--ensemble", required=True, help="ensemble.json manifest")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--format", choices=["idx", "csv"], help="output container (default: inferred)")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArtifactMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except NadsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
