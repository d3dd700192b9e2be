"""Command-line behavior: exit codes, artifacts, manifests, and end-to-end
reproducibility of the toy pipeline."""

import hashlib
import json
import shutil
import struct

import numpy as np
import pytest

from nads.cli import main
from nads.data import load_points_csv, read_idx
from nads.waic import read_loglik_csv, read_report_csv


class TestExitCodes:
    def test_missing_config_file_names_path(self, tmp_path, capsys):
        rc = main([
            "search", "--config", str(tmp_path / "absent.json"),
            "--data", str(tmp_path / "data.json"), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_unknown_profile(self, tmp_path, capsys):
        rc = main([
            "search", "--profile", "galactic", "--data", "x.json",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2

    def test_missing_ensemble_manifest_is_artifact_error(self, tmp_path):
        rc = main([
            "score", "--ensemble", str(tmp_path / "nope.json"), "--data", "whatever.csv",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 4

    def test_missing_member_checkpoint_is_artifact_error(self, tmp_path, toy_pipeline):
        import shutil

        src = toy_pipeline["root"] / "ensemble"
        dst = tmp_path / "ens_copy"
        shutil.copytree(src, dst)
        (dst / "member_01.nadsflw").unlink()
        rc = main([
            "score", "--ensemble", str(dst / "ensemble.json"),
            "--data", str(toy_pipeline["data"]), "--split", "test",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 4

    def test_empty_dataset_is_config_error(self, tmp_path, toy_pipeline):
        empty = tmp_path / "empty.csv"
        empty.write_text("x0,x1\n")
        rc = main([
            "score", "--ensemble", str(toy_pipeline["root"] / "ensemble" / "ensemble.json"),
            "--data", str(empty), "--out-dir", str(tmp_path / "out"),
        ])
        assert rc == 2

    def test_bad_threads(self, tmp_path):
        # --threads did nothing and is gone; argparse rejects it as unknown
        with pytest.raises(SystemExit) as exc:
            main(["search", "--data", "d.json", "--out-dir", str(tmp_path), "--threads", "0"])
        assert exc.value.code == 2

    def test_invalid_nads_seed(self, tmp_path, monkeypatch, toy_data):
        monkeypatch.setenv("NADS_SEED", "not-a-number")
        rc = main([
            "search", "--profile", "toy2d", "--data", str(toy_data),
            "--out-dir", str(tmp_path / "out"), "--dry-run",
        ])
        assert rc == 2


def _copy_ensemble(toy_pipeline, dst, patch, rehash=True):
    """Copy the pipeline's ensemble, let `patch` edit member_00's bytes, and
    record the edited file's hash unless `rehash` is off."""
    shutil.copytree(toy_pipeline["root"] / "ensemble", dst)
    member = dst / "member_00.nadsflw"
    blob = bytearray(member.read_bytes())
    patch(blob)
    member.write_bytes(bytes(blob))
    if rehash:
        manifest = json.loads((dst / "ensemble.json").read_text())
        manifest["members"][0]["sha256"] = hashlib.sha256(blob).hexdigest()
        (dst / "ensemble.json").write_text(json.dumps(manifest))
    return dst / "ensemble.json"


def _step0_perm_offset(blob):
    """Offset of step 0's 1x1 permutation (see the checkpoint layout in flow_core)."""
    (num_ops,) = struct.unpack_from("<I", blob, 32)
    _, num_edges = struct.unpack_from("<2I", blob, 36 + num_ops)
    return 36 + num_ops + 8 + 8 * num_edges + 1


def _set_op_id(blob):
    blob[36] = 9  # one past the last of the 9 operation kinds


def _repeat_perm(blob):
    struct.pack_into("<2I", blob, _step0_perm_offset(blob), 0, 0)


def _bad_sign(blob):
    blob[_step0_perm_offset(blob) + 8] = 2  # the toy flow's first block has 2 channels


def _phi_args(text):
    def make(tmp_path, toy_pipeline):
        phi = tmp_path / "phi.json"
        phi.write_text(text)
        return ["ensemble", "--profile", "toy2d", "--phi", str(phi),
                "--data", str(toy_pipeline["data"])]
    return make


def _bad_manifest_args(tmp_path, toy_pipeline):
    manifest = tmp_path / "data.json"
    manifest.write_text('{"format": "csv", "splits": ')
    return ["search", "--profile", "toy2d", "--data", str(manifest), "--dry-run"]


def _bad_report_args(tmp_path, toy_pipeline):
    report = tmp_path / "report.csv"
    report.write_text("sample_id,mean,variance,waic\n0,-1.0,oops,-1.0\n")
    good = toy_pipeline["root"] / "score_out" / "waic_report.csv"
    return ["eval", "--in-report", str(report), "--out-report", str(good)]


def _score_csv_args(text):
    def make(tmp_path, toy_pipeline):
        points = tmp_path / "points.csv"
        points.write_text(text)
        return ["score", "--ensemble", str(toy_pipeline["root"] / "ensemble" / "ensemble.json"),
                "--data", str(points)]
    return make


def _search_csv_args(text):
    def make(tmp_path, toy_pipeline):
        (tmp_path / "train.csv").write_text(text)
        manifest = tmp_path / "data.json"
        manifest.write_text('{"format": "csv", "splits": {"train": "train.csv"}}')
        return ["search", "--profile", "toy2d", "--data", str(manifest)]
    return make


def _arch_op_args(op):
    def make(tmp_path, toy_pipeline):
        dst = tmp_path / "ens"
        shutil.copytree(toy_pipeline["root"] / "ensemble", dst)
        manifest = json.loads((dst / "ensemble.json").read_text())
        manifest["members"][0]["arch_ops"][0] = op
        (dst / "ensemble.json").write_text(json.dumps(manifest))
        return ["score", "--ensemble", str(dst / "ensemble.json"),
                "--data", str(toy_pipeline["data"]), "--split", "test"]
    return make


def _checkpoint_args(patch):
    def make(tmp_path, toy_pipeline):
        manifest = _copy_ensemble(toy_pipeline, tmp_path / "ens", patch)
        return ["score", "--ensemble", str(manifest), "--data", str(toy_pipeline["data"]),
                "--split", "test"]
    return make


@pytest.mark.parametrize("make_args", [
    _phi_args("{}"),
    _phi_args("{not json"),
    _bad_manifest_args,
    _bad_report_args,
    _checkpoint_args(_set_op_id),
    _checkpoint_args(_repeat_perm),
    _checkpoint_args(_bad_sign),
    _arch_op_args(2),
    _arch_op_args(-1),
    _score_csv_args("x0,x1\n1.0,2.0\n3.0\n"),
    _score_csv_args("x0,x1\n1.0,two\n"),
    _search_csv_args("x0,x1\n1.0,2.0\nnan,0.5\n"),
    _search_csv_args("x0,x1\n1.0,inf\n0.0,0.5\n"),
], ids=["phi-empty-object", "phi-not-json", "data-manifest-not-json", "report-non-numeric",
        "checkpoint-op-id-9", "checkpoint-perm-repeats", "checkpoint-sign-2",
        "arch-op-past-menu", "arch-op-negative", "points-ragged-row", "points-non-numeric",
        "train-nan", "train-inf"])
def test_malformed_input_exits_2(make_args, tmp_path, toy_pipeline, capsys):
    argv = make_args(tmp_path, toy_pipeline) + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_tampered_member_checkpoint_refused_before_load(tmp_path, toy_pipeline, capsys,
                                                        monkeypatch):
    import nads.ensemble

    def flip(blob):
        blob[-1] ^= 0x01

    manifest = _copy_ensemble(toy_pipeline, tmp_path / "ens", flip, rehash=False)

    def must_not_load(path):
        raise AssertionError(f"{path} was loaded before its hash was checked")

    monkeypatch.setattr(nads.ensemble, "load_checkpoint", must_not_load)
    rc = main(["score", "--ensemble", str(manifest), "--data", str(toy_pipeline["data"]),
               "--split", "test", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "member_00.nadsflw" in capsys.readouterr().err


class TestDryRun:
    def test_validates_and_writes_manifest_only(self, tmp_path, toy_data):
        out = tmp_path / "dry"
        rc = main([
            "search", "--profile", "toy2d", "--data", str(toy_data),
            "--out-dir", str(out), "--seed", "3", "--dry-run",
        ])
        assert rc == 0
        assert (out / "manifest.json").exists()
        assert not (out / "phi.json").exists()
        assert not (out / "theta.nadsflw").exists()


class TestPipelineArtifacts:
    def test_all_commands_succeed(self, toy_pipeline):
        assert toy_pipeline["codes"] == {
            "search": 0, "ensemble": 0, "score_in": 0, "score_out": 0,
            "eval": 0, "generate": 0,
        }

    def test_search_artifacts(self, toy_pipeline):
        out = toy_pipeline["root"] / "search"
        for name in ("phi.json", "theta.nadsflw", "trace.csv", "architecture.txt",
                     "manifest.json"):
            assert (out / name).exists(), name
        phi = json.loads((out / "phi.json").read_text())
        assert len(phi["logits"]) == 2  # chain topology, one tied cell group
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss,tau,grad_norm"
        assert len(trace) == 601
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert set(manifest["artifacts"]) >= {"phi.json", "theta.nadsflw", "trace.csv"}

    def test_ensemble_artifacts(self, toy_pipeline):
        out = toy_pipeline["root"] / "ensemble"
        doc = json.loads((out / "ensemble.json").read_text())
        assert len(doc["members"]) == 3
        total = sum(m["weight"] for m in doc["members"])
        assert total == pytest.approx(1.0, abs=1e-12)
        for j in range(3):
            assert (out / f"member_{j:02d}.nadsflw").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["wall_clock_seconds"] < 600  # M=3 toy build budget

    def test_score_outputs(self, toy_pipeline):
        out = toy_pipeline["root"] / "score_in"
        report = read_report_csv(out / "waic_report.csv")
        assert len(report.score) == 2000
        ll = read_loglik_csv(out / "loglik.csv")
        assert ll.values.shape == (2000, 3)
        np.testing.assert_allclose(report.score, report.mean - report.variance, atol=1e-12)

    def test_eval_outputs_and_separation(self, toy_pipeline):
        out = toy_pipeline["root"] / "eval"
        doc = json.loads((out / "report.json").read_text())
        assert doc["auroc"] >= 0.95
        assert doc["fpr_at_95_tpr"] <= 0.25
        roc = (out / "roc.csv").read_text().splitlines()
        assert roc[0] == "fpr,tpr" and roc[1] == "0.0,0.0"
        assert (out / "pr.csv").exists() and (out / "hist.csv").exists()
        hist = (out / "hist.csv").read_text().splitlines()[1:]
        counts = np.array([[int(v) for v in ln.split(",")[2:]] for ln in hist])
        assert counts[:, 0].sum() == 2000 and counts[:, 1].sum() == 2000

    def test_generate_outputs_csv_points(self, toy_pipeline):
        out = toy_pipeline["root"] / "generate"
        pts = load_points_csv(out / "samples.csv")
        assert pts.x.shape == (8, 1, 1, 2)


class TestGenerateIdx:
    def test_image_model_emits_idx(self, tmp_path, monkeypatch):
        # build a minimal single-channel image ensemble via the library, then
        # drive only the generate command
        import nads.ensemble as ens_mod
        from nads.flow_core import FlowConfig
        from nads.search_space import ArchDistribution, CellTopology
        from nads.trainer import RetrainConfig

        chain = CellTopology(3, ((0, 1), (1, 2)))
        flow = FlowConfig(in_shape=(1, 4, 4), num_blocks=1, flows_per_block=1,
                          squeeze=True, topology=chain, ops=("zero", "identity"))
        rng = np.random.default_rng(0)
        data = rng.random((64, 1, 4, 4))
        dist = ArchDistribution.uniform(("zero", "identity"), chain, 1)
        cfg = RetrainConfig(flow=flow, iterations=3, learning_rate=1e-3,
                            batch_size=16, ensemble_size=1, seed=0)
        ens = ens_mod.build_ensemble(dist, data, cfg, seed=1)
        manifest = ens_mod.save_ensemble(ens, tmp_path / "ens")
        rc = main([
            "generate", "--ensemble", str(manifest), "--count", "5",
            "--temperature", "0.5", "--seed", "2", "--out-dir", str(tmp_path / "gen"),
        ])
        assert rc == 0
        arr = read_idx(tmp_path / "gen" / "samples.idx")
        assert arr.shape == (5, 4, 4)

    def test_temperature_zero_replicates_mode(self, tmp_path, toy_pipeline):
        rc = main([
            "generate", "--profile", "toy2d",
            "--ensemble", str(toy_pipeline["root"] / "ensemble" / "ensemble.json"),
            "--count", "4", "--temperature", "0.0", "--seed", "5",
            "--out-dir", str(tmp_path / "gen0"),
        ])
        assert rc == 0
        pts = load_points_csv(tmp_path / "gen0" / "samples.csv").x.reshape(4, 2)
        # all draws hit a member's latent-origin image; with 3 members there
        # are at most 3 distinct rows
        assert len({tuple(r) for r in np.round(pts, 12).tolist()}) <= 3

    def test_generate_reproducible(self, tmp_path, toy_pipeline):
        outs = []
        for d in ("g1", "g2"):
            rc = main([
                "generate", "--profile", "toy2d",
                "--ensemble", str(toy_pipeline["root"] / "ensemble" / "ensemble.json"),
                "--count", "6", "--temperature", "0.8", "--seed", "9",
                "--out-dir", str(tmp_path / d),
            ])
            assert rc == 0
            outs.append((tmp_path / d / "samples.csv").read_bytes())
        assert outs[0] == outs[1]


class TestManifestHashes:
    def test_rerun_same_seed_identical_artifact_hashes(self, toy_pipeline, toy_pipeline_rerun):
        # a second full pipeline under the same seed reproduces every artifact
        # hash recorded in the manifests
        assert all(v == 0 for v in toy_pipeline_rerun["codes"].values())
        for stage in ("search", "ensemble", "score_in", "score_out", "eval"):
            a = json.loads(
                (toy_pipeline["root"] / stage / "manifest.json").read_text()
            )["artifacts"]
            b = json.loads(
                (toy_pipeline_rerun["root"] / stage / "manifest.json").read_text()
            )["artifacts"]
            assert a and a == b
