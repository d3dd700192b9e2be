"""Command-line behavior: exit codes, artifacts, manifests, and end-to-end
reproducibility of the toy pipeline."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nads.cli import PROFILES, main, retrain_config_from, search_config_from
from nads.ensemble import MAX_SAMPLES, load_ensemble
from nads.errors import ConfigError
from nads.flow_core import CHECKPOINT_MAGIC, FlowConfig
from nads.trainer import RetrainConfig, SearchConfig, TauSchedule
from nads.data import load_points_csv, read_idx
from nads.waic import read_loglik_csv, read_report_csv, waic_per_sample

from oracles import reference_retrain_config, reference_search_config

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_scipy_out():
    """The runtime needs numpy only; the CLI import must not pull in scipy."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import nads.cli; " \
           "print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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


def _set_header(raw):
    """A patch that replaces the checkpoint's JSON header with the bytes `raw`
    (see the checkpoint layout in flow_core)."""
    def patch(blob):
        n = len(CHECKPOINT_MAGIC)
        end = n + 4 + int.from_bytes(blob[n : n + 4], "little")
        blob[n:end] = len(raw).to_bytes(4, "little") + raw
    return patch


def _edit_header(edit):
    """A patch that lets `edit` rewrite the checkpoint's decoded JSON header."""
    def patch(blob):
        n = len(CHECKPOINT_MAGIC)
        header = json.loads(blob[n + 4 : n + 4 + int.from_bytes(blob[n : n + 4], "little")])
        edit(header)
        _set_header(json.dumps(header).encode())(blob)
    return patch


def _wide_header(header):
    """A 64-channel one-step flow: ~1.9 MB of parameters that the file lacks."""
    flow = FlowConfig(in_shape=(64, 1, 1), num_blocks=1, flows_per_block=1, squeeze=False)
    header.update(arch=None, flow=flow.to_dict(), steps=[[True, list(range(64)), [1] * 64]])


def _set_op_id(header):
    header["flow"]["ops"][0] = "conv_7x7"  # not one of the operation kinds


def _repeat_perm(header):
    header["steps"][0][1] = [0, 0]  # the toy flow's first block has 2 channels


def _bad_sign(header):
    header["steps"][0][2][0] = 2


def _phi_args(text):
    def make(tmp_path, toy_pipeline):
        phi = tmp_path / "phi.json"
        phi.write_text(text)
        return ["ensemble", "--profile", "toy2d", "--phi", str(phi),
                "--data", str(toy_pipeline["data"])]
    return make


def _phi_edit_args(edit):
    """A copy of the toy run's phi.json with one field rewritten."""
    def make(tmp_path, toy_pipeline):
        doc = json.loads((toy_pipeline["root"] / "search" / "phi.json").read_text())
        edit(doc)
        return _phi_args(json.dumps(doc))(tmp_path, toy_pipeline)
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


def _member_args(edit):
    """Score with a copy of the toy ensemble whose first member entry `edit`
    rewrote."""
    def make(tmp_path, toy_pipeline):
        dst = tmp_path / "ens"
        shutil.copytree(toy_pipeline["root"] / "ensemble", dst)
        manifest = json.loads((dst / "ensemble.json").read_text())
        edit(manifest["members"][0])
        (dst / "ensemble.json").write_text(json.dumps(manifest))
        return ["score", "--ensemble", str(dst / "ensemble.json"),
                "--data", str(toy_pipeline["data"]), "--split", "test"]
    return make


def _toy_argv(command, toy_pipeline):
    run, data = toy_pipeline["root"], str(toy_pipeline["data"])
    ens = str(run / "ensemble" / "ensemble.json")
    return {
        "search": ["search", "--profile", "toy2d", "--data", data, "--dry-run"],
        "ensemble": ["ensemble", "--profile", "toy2d", "--data", data,
                     "--phi", str(run / "search" / "phi.json")],
        "score": ["score", "--ensemble", ens, "--data", data, "--split", "test"],
        "eval": ["eval", "--in-report", str(run / "score_in" / "waic_report.csv"),
                 "--out-report", str(run / "score_out" / "waic_report.csv")],
        "generate": ["generate", "--ensemble", ens],
    }[command]


def _flag_args(command, flag, value):
    """The toy run's `command` with `flag` set to `value(tmp_path)`."""
    def make(tmp_path, toy_pipeline):
        argv, v = _toy_argv(command, toy_pipeline), value(tmp_path)
        if flag in argv:
            argv[argv.index(flag) + 1] = v
        else:
            argv += [flag, v]
        return argv
    return make


def _holding(content: bytes, name: str):
    """A flag value: a file `name` in the test directory that holds `content`."""
    def value(tmp_path):
        (tmp_path / name).write_bytes(content)
        return str(tmp_path / name)
    return value


A_DIRECTORY = str  # a flag value: the test's own directory
NOT_UTF8 = b"\xff\xfe\x00\x81"
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit
IDX_IMAGES = struct.pack(">I", 0x00000803)  # the magic of a 3-D IDX image file


def _config_args(text, command="search"):
    def make(tmp_path, toy_pipeline):
        config = tmp_path / "config.json"
        config.write_text(text)
        argv = [command, "--profile", "toy2d", "--config", str(config),
                "--data", str(toy_pipeline["data"])]
        if command == "ensemble":
            return argv + ["--phi", str(toy_pipeline["root"] / "search" / "phi.json")]
        return argv + ["--dry-run"]
    return make


def _checkpoint_args(patch):
    """Score with a copy of the toy ensemble whose member_00 bytes `patch`
    edited, its recorded hash updated to match."""
    def make(tmp_path, toy_pipeline):
        manifest = _copy_ensemble(toy_pipeline, tmp_path / "ens", patch)
        return ["score", "--ensemble", str(manifest), "--data", str(toy_pipeline["data"]),
                "--split", "test"]
    return make


def _mixed_flows(tmp_path):
    """A flag value: an ensemble of an initialized toy2d member and desk
    member, each with its hash recorded."""
    from nads.cli import flow_config_from
    from nads.ensemble import Ensemble, EnsembleMember, save_ensemble
    from nads.flow_core import FlowModel
    from nads.search_space import ArchDistribution, sample_discrete

    members = []
    for profile in ("toy2d", "desk"):
        flow = flow_config_from(PROFILES[profile])
        dist = ArchDistribution.uniform(flow.ops, flow.topology, flow.num_cell_groups())
        model = FlowModel(flow, arch=sample_discrete(dist, 0))
        model.initialize_actnorm(np.random.default_rng(0).normal(size=(4,) + flow.in_shape))
        members.append(EnsembleMember(model))
    return str(save_ensemble(Ensemble(members), tmp_path / "mixed"))


@pytest.mark.parametrize("make_args", [
    _phi_args("{}"),
    _phi_args("{not json"),
    _phi_edit_args(lambda d: d.update(tau="2")),
    _phi_edit_args(lambda d: d.update(num_cell_groups=1.9)),
    _phi_edit_args(lambda d: d.update(num_cell_groups=True)),
    _phi_edit_args(lambda d: d.update(logits=[[str(v) for v in row] for row in d["logits"]])),
    _phi_edit_args(lambda d: d["logits"][0].__setitem__(0, float("nan"))),
    _phi_edit_args(lambda d: d.update(ops=d["flow"]["ops"], num_cell_groups=1, topology={
        "num_nodes": d["flow"]["num_nodes"], "edges": d["flow"]["edges"]})),
    _phi_edit_args(lambda d: d["logits"].append(d["logits"][0])),
    _phi_edit_args(lambda d: d.update(logits=[[0.0], [0.0, 0.0]])),
    _bad_manifest_args,
    _bad_report_args,
    _checkpoint_args(_edit_header(_set_op_id)),
    _checkpoint_args(_edit_header(_repeat_perm)),
    _checkpoint_args(_edit_header(_bad_sign)),
    _checkpoint_args(lambda blob: blob.__setitem__(slice(0, 8), b"NADSFLW1")),
    _checkpoint_args(_set_header(b"{not json")),
    _checkpoint_args(_edit_header(lambda h: h.update(extra=1))),
    _checkpoint_args(_edit_header(lambda h: h["steps"].pop())),
    _checkpoint_args(lambda blob: blob.pop()),
    _checkpoint_args(lambda blob: blob.append(0)),
    _checkpoint_args(_edit_header(_wide_header)),
    _checkpoint_args(_edit_header(lambda h: h["arch"].__setitem__(0, "sep_conv_3x3"))),
    _checkpoint_args(_edit_header(lambda h: h["arch"].pop())),
    _checkpoint_args(_edit_header(lambda h: h.update(arch="identity"))),
    _checkpoint_args(_edit_header(lambda h: h.pop("arch"))),
    _member_args(lambda e: e.update(checkpoint=7)),
    _member_args(lambda e: e.update(sha256=None)),
    _flag_args("search", "--config", A_DIRECTORY),
    _flag_args("search", "--data", A_DIRECTORY),
    _flag_args("score", "--data", A_DIRECTORY),
    _flag_args("search", "--data", _holding(b'{"splits": {"train": "."}}', "data.json")),
    _flag_args("search", "--data", _holding(b'{"splits": {"train": 5}}', "data.json")),
    _flag_args("search", "--data", _holding(NOT_UTF8, "data.json")),
    _flag_args("score", "--data", _holding(b"x0,x1\n" + NOT_UTF8, "points.csv")),
    _flag_args("score", "--data", _holding(b"x0,x1\n" + b"1" * 200_000 + b",2\n",
                                            "points.csv")),
    _flag_args("eval", "--in-report", _holding(NOT_UTF8, "report.csv")),
    _flag_args("generate", "--temperature", lambda _: "nan"),
    _flag_args("generate", "--temperature", lambda _: "inf"),
    _config_args(DEEP_JSON),
    _phi_args(DEEP_JSON),
    _flag_args("search", "--data", _holding(DEEP_JSON.encode(), "data.json")),
    _flag_args("score", "--ensemble", _holding(DEEP_JSON.encode(), "ensemble.json")),
    _checkpoint_args(_set_header(DEEP_JSON.encode())),
    _flag_args("score", "--data", _holding(IDX_IMAGES + struct.pack(">3I", 2**31, 2**31, 4),
                                            "x.idx")),
    _flag_args("score", "--data", _holding(IDX_IMAGES + struct.pack(">3I", 1, 0, 5), "x.idx")),
    _score_csv_args("x0,x1\n1.0,2.0\n3.0\n"),
    _score_csv_args("x0,x1\n1.0,two\n"),
    _search_csv_args("x0,x1\n1.0,2.0\nnan,0.5\n"),
    _search_csv_args("x0,x1\n1.0,inf\n0.0,0.5\n"),
    _config_args('{"search": {"batch_size": "four"}}'),
    _config_args('{"search": {"tau": 3}}'),
    _config_args('{"search": {"phi_learning_rate": "fast"}}'),
    _config_args('{"search": {"iterations": 2.9}}'),
    _config_args('{"search": {"learning_rate": true}}'),
    _config_args('{"search": {"batch_sise": 8}}'),
    _config_args('{"seed": "abc"}'),
    _config_args('{"seed": 1.7}'),
    _config_args('{"seed": true}'),
    _config_args("[1, 2]"),
    _config_args('{"search": [1]}'),
    _config_args('{"retrain": {"ensemble_size": 2.5}}', command="ensemble"),
    _flag_args("eval", "--in-report", _holding(
        b"sample_id,mean,variance,waic\n0,-1.0,0.5,-1.5,7\n", "report.csv")),
    _flag_args("eval", "--in-report", _holding(
        b"sample_id,mean,variance,waic\nx,-1.0,0.5,-1.5\n", "report.csv")),
    _flag_args("ensemble", "--learning-rate", lambda _: "nan"),
    _flag_args("ensemble", "--learning-rate", lambda _: "inf"),
    _flag_args("search", "--learning-rate", lambda _: "nan"),
    _flag_args("search", "--learning-rate", lambda _: "inf"),
    _config_args('{"retrain": {"eps": 0}}', command="ensemble"),
    _config_args('{"retrain": {"beta1": 1.5}}', command="ensemble"),
    _config_args('{"retrain": {"grad_clip": -1}}', command="ensemble"),
    _config_args('{"search": {"grad_clip": -1}}'),
    _flag_args("generate", "--ensemble", _mixed_flows),
    _flag_args("score", "--ensemble", _mixed_flows),
    _flag_args("eval", "--bins", lambda _: "1000000000"),
    _flag_args("generate", "--count", lambda _: str(MAX_SAMPLES + 1)),
    _member_args(lambda e: e.update(halted_at="1")),
], ids=["phi-empty-object", "phi-not-json", "phi-tau-string", "phi-groups-float",
        "phi-groups-bool", "phi-logits-strings", "phi-logits-nan", "phi-six-key-layout",
        "phi-logits-rows-disagree-with-flow", "phi-logits-ragged", "data-manifest-not-json",
        "report-non-numeric", "checkpoint-op-id-9", "checkpoint-perm-repeats", "checkpoint-sign-2",
        "checkpoint-magic-v1", "checkpoint-header-not-json", "checkpoint-header-unknown-key",
        "checkpoint-step-count", "checkpoint-payload-short", "checkpoint-trailing-byte",
        "checkpoint-forged-64-channels",
        "checkpoint-arch-op-not-in-menu", "checkpoint-arch-row-count",
        "checkpoint-arch-not-a-list", "checkpoint-arch-missing", "member-checkpoint-int", "member-sha256-null",
        "config-directory",
        "data-manifest-directory", "score-data-directory", "data-split-directory",
        "data-split-not-string", "data-manifest-not-utf8", "points-not-utf8",
        "points-field-too-long", "report-not-utf8", "temperature-nan", "temperature-inf",
        "config-deeply-nested", "phi-deeply-nested", "data-manifest-deeply-nested",
        "ensemble-deeply-nested", "checkpoint-header-deeply-nested",
        "idx-dims-product-overflows", "idx-empty-dimension",
        "points-ragged-row", "points-non-numeric",
        "train-nan", "train-inf", "config-int-as-string", "config-tau-not-object",
        "config-float-as-string", "config-int-as-float", "config-float-as-bool",
        "config-unknown-key", "config-seed-string", "config-seed-float", "config-seed-bool",
        "config-not-object", "config-section-not-object", "config-retrain-int-as-float",
        "report-fifth-field", "report-sample-id-not-a-number",
        "ensemble-learning-rate-nan", "ensemble-learning-rate-inf", "search-learning-rate-nan",
        "search-learning-rate-inf", "retrain-eps-zero", "retrain-beta1-above-1",
        "retrain-grad-clip-negative", "search-grad-clip-negative",
        "generate-mixed-flows", "score-mixed-flows", "eval-bins-past-limit",
        "generate-count-past-limit", "member-halted-at-string"])
def test_malformed_input_exits_2(make_args, tmp_path, toy_pipeline, capsys):
    argv = make_args(tmp_path, toy_pipeline) + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("make_args", [
    _flag_args("ensemble", "--phi", A_DIRECTORY),
    _flag_args("score", "--ensemble", A_DIRECTORY),
    _flag_args("eval", "--in-report", lambda tmp_path: str(tmp_path / "absent.csv")),
    _flag_args("eval", "--in-report", A_DIRECTORY),
    _member_args(lambda e: e.update(checkpoint=".")),
], ids=["phi-directory", "ensemble-directory", "report-missing", "report-directory",
        "member-checkpoint-directory"])
def test_missing_artifact_exits_4(make_args, tmp_path, toy_pipeline, capsys):
    argv = make_args(tmp_path, toy_pipeline) + ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# -- config sections -------------------------------------------------------------

FLAGS = ("iterations", "learning_rate", "batch_size", "arch_samples", "members")
FLAG_OVERRIDES = [{}, {"iterations": 7}, {"learning_rate": 0.5}, {"batch_size": 3},
                  {"arch_samples": 2}, {"members": 2}]
# Every section key set, each number written as a JSON integer.
ALL_KEYS_AS_INTEGERS = {
    **PROFILES["toy2d"],
    "search": {"learning_rate": 1, "batch_size": 2, "iterations": 3, "num_arch_samples": 1,
               "tau": {"kind": "linear", "tau0": 2, "tau_min": 1, "steps": 5, "gamma": 1},
               "beta1": 0, "beta2": 0, "eps": 1, "grad_clip": 5, "phi_learning_rate": 3},
    "retrain": {"iterations": 3, "learning_rate": 1, "batch_size": 2, "ensemble_size": 1,
                "beta1": 0, "beta2": 0, "eps": 1, "grad_clip": 5},
}


def _flags(**given):
    return argparse.Namespace(**{**dict.fromkeys(FLAGS), **given})


@pytest.mark.parametrize("overrides", FLAG_OVERRIDES,
                         ids=["no-flags"] + [next(iter(o)) for o in FLAG_OVERRIDES[1:]])
@pytest.mark.parametrize("doc", [*PROFILES.values(), ALL_KEYS_AS_INTEGERS],
                         ids=[*PROFILES, "all-keys-as-integers"])
def test_sections_decode_like_the_reference(doc, overrides):
    args = _flags(**overrides)
    flow = FlowConfig.from_dict(doc["flow"])
    for decode, reference in [(search_config_from, reference_search_config),
                              (retrain_config_from, reference_retrain_config)]:
        got, want = decode(doc, 7, args), reference(doc, 7, args, flow)
        # repr tells 1 from 1.0, so the float fields hold floats
        assert got == want and repr(got) == repr(want)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=4),
    max_leaves=12,
)


def _section_docs(cls, valid):
    """Any JSON value, objects over the field names and other keys, and a
    valid section with arbitrary values written over some of its keys."""
    keys = st.sampled_from([f.name for f in dataclasses.fields(cls)]) | st.text(max_size=8)
    docs = st.dictionaries(keys, JSON_VALUES, max_size=6)
    return JSON_VALUES | docs | docs.map(lambda d: {**valid, **d})


TOY_SEARCH = PROFILES["toy2d"]["search"]
SECTION_DOCS = st.one_of(
    _section_docs(SearchConfig, TOY_SEARCH).map(lambda d: {"search": d}),
    _section_docs(TauSchedule, TOY_SEARCH["tau"]).map(lambda d: {"search": {"tau": d}}),
    _section_docs(RetrainConfig, PROFILES["toy2d"]["retrain"]).map(lambda d: {"retrain": d}),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SECTION_DOCS)
def test_any_json_section_decodes_or_raises_config_error(section):
    doc = {"flow": PROFILES["toy2d"]["flow"], **section}
    for decode, cls in [(search_config_from, SearchConfig),
                        (retrain_config_from, RetrainConfig)]:
        try:
            cfg = decode(doc, 0, _flags())
        except ConfigError:
            continue
        assert isinstance(cfg, cls)


NAN, INF = float("nan"), float("inf")
RATE = [NAN, INF, -INF, 0.0, -1e-3]  # finite and > 0
BETA = [NAN, INF, -1e-3, 1.0, 1.5]  # in [0, 1)
# Every ranged field with values outside its range, by section.
OUT_OF_RANGE = {
    **{("search", f): RATE for f in ("learning_rate", "phi_learning_rate", "eps", "grad_clip")},
    **{("retrain", f): RATE for f in ("learning_rate", "eps", "grad_clip")},
    **{(s, f): BETA for s in ("search", "retrain") for f in ("beta1", "beta2")},
    **{(s, f): [0, -1] for s, f in [("search", "batch_size"), ("search", "num_arch_samples"),
                                     ("retrain", "batch_size"), ("retrain", "ensemble_size"),
                                     ("search.tau", "steps")]},
    ("search", "iterations"): [-1],
    ("retrain", "iterations"): [-1],
    ("search.tau", "tau0"): RATE,
    ("search.tau", "tau_min"): RATE,
    ("search.tau", "gamma"): [NAN, INF, 0.0, -0.5, 1.5],  # in (0, 1]
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(OUT_OF_RANGE[key]))))
def test_out_of_range_config_value_exits_2_naming_it(toy_pipeline, case):
    (section, name), value = case
    doc = {name: value}
    for key in reversed(section.split(".")):
        doc = {key: doc}
    with tempfile.TemporaryDirectory() as d:
        config = Path(d) / "config.json"
        config.write_text(json.dumps(doc))
        argv = (["ensemble", "--phi", str(toy_pipeline["root"] / "search" / "phi.json")]
                if section == "retrain" else ["search", "--dry-run"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--profile", "toy2d", "--config", str(config), "--data",
                                str(toy_pipeline["data"]), "--out-dir", str(Path(d) / "out")])
    assert code == 2
    assert err.getvalue().startswith(f"error: {section}.{name} must be "), err.getvalue()
    assert repr(value) in err.getvalue()


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


def test_member_numeric_error_exits_3(tmp_path, toy_pipeline, capsys, monkeypatch):
    import nads.ensemble
    from nads.errors import NumericError

    def diverge(*args):
        raise NumericError("non-finite loss")

    monkeypatch.setattr(nads.ensemble, "retrain", diverge)
    rc = main(_toy_argv("ensemble", toy_pipeline) + ["--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "member 0" in capsys.readouterr().err


def test_retrain_halt_exits_3_naming_members(tmp_path, toy_pipeline, capsys):
    out = tmp_path / "out"
    rc = main(_toy_argv("ensemble", toy_pipeline) + [
        "--members", "2", "--iterations", "5", "--learning-rate", "1e300",
        "--out-dir", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "member 0 at step 1" in err and "member 1 at step 1" in err, err
    assert "Traceback" not in err
    doc = json.loads((out / "ensemble.json").read_text())
    assert [m["halted_at"] for m in doc["members"]] == [1, 1]
    assert [m.model.halted_at for m in load_ensemble(out / "ensemble.json").members] == [1, 1]


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
        for m in doc["members"]:  # the checkpoint, whose header holds the arch, its hash,
            assert set(m) == {"checkpoint", "sha256", "halted_at"}  # and the halt, if any
            assert m["halted_at"] is None
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

    @pytest.mark.parametrize("split", ["score_in", "score_out"])
    def test_report_rescores_from_loglik_bit_for_bit(self, toy_pipeline, split):
        # The searched phi is not uniform, so any weighting of members other
        # than the 1/M of waic_per_sample shows here.
        out = toy_pipeline["root"] / split
        rescored = waic_per_sample(read_loglik_csv(out / "loglik.csv"))
        report = read_report_csv(out / "waic_report.csv")
        for field in ("mean", "variance", "score"):
            np.testing.assert_array_equal(getattr(rescored, field), getattr(report, field))

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

    def test_every_table_starts_with_its_header_and_holds_no_cr(self, toy_pipeline):
        headers = {
            "trace.csv": "step,loss,tau,grad_norm",
            "loglik.csv": "sample_id,arch_0,arch_1,arch_2",
            "waic_report.csv": "sample_id,mean,variance,waic",
            "roc.csv": "fpr,tpr",
            "pr.csv": "recall,precision",
            "hist.csv": "bin_left,bin_right,count_in,count_out",
            "samples.csv": "x0,x1",
        }
        tables = sorted(toy_pipeline["root"].rglob("*.csv"))
        assert {p.name for p in tables} == set(headers)
        for path in tables:
            blob = path.read_bytes()
            assert blob.startswith(headers[path.name].encode() + b"\n"), path
            assert b"\r" not in blob, path

    def test_generate_outputs_csv_points(self, toy_pipeline):
        out = toy_pipeline["root"] / "generate"
        pts = load_points_csv(out / "samples.csv")
        assert pts.x.shape == (8, 1, 1, 2)


class TestGenerateIdx:
    def test_image_model_emits_idx(self, tmp_path, monkeypatch):
        # build a minimal single-channel image ensemble via the library, then
        # drive only the generate command
        import nads.ensemble as ens_mod
        from nads.flow_core import CHECKPOINT_MAGIC, FlowConfig
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


DESK_RUN = """
import sys
from pathlib import Path
sys.path.insert(0, {src!r})
import numpy as np
from nads.cli import main
from nads.data import save_idx
d = Path({out!r})
d.mkdir()
save_idx(d / "train.idx", np.random.default_rng(3).integers(0, 256, (32, 8, 8)))
(d / "data.json").write_text('{{"format": "idx", "splits": {{"train": "train.idx"}}}}')
common = ["--profile", "desk", "--seed", "4", "--iterations", "2"]
codes = [
    main(["search", *common, "--data", str(d / "data.json"), "--out-dir", str(d / "search")]),
    main(["ensemble", *common, "--phi", str(d / "search" / "phi.json"), "--members", "2",
          "--data", str(d / "data.json"), "--out-dir", str(d / "ensemble")]),
    main(["score", "--seed", "4", "--ensemble", str(d / "ensemble" / "ensemble.json"),
          "--data", str(d / "data.json"), "--split", "train", "--out-dir", str(d / "score")]),
]
print(codes)
"""


def test_desk_outputs_identical_at_1_and_2_blas_threads(tmp_path):
    """Convolutions run through BLAS, so the desk search, retrain and score
    outputs must not depend on how many threads it uses."""
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-c", DESK_RUN.format(src=str(SRC), out=str(out))],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-3:] == ["[0,", "0,", "0]"], proc.stdout
        runs.append(out)
    names = ["search/phi.json", "search/theta.nadsflw", "search/trace.csv",
             "ensemble/member_00.nadsflw", "ensemble/member_01.nadsflw",
             "score/waic_report.csv"]
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
