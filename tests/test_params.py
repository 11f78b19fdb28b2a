import json

import numpy as np
import pytest

from graftkit.autograd import Tensor
from graftkit.clip_stage import load_clip
from graftkit.nn import DecoderLM, LmConfig, load_lm, save_lm
from graftkit.params import ParamRegistry, load_checkpoint, save_checkpoint
from graftkit.qformer import (Phase2Bridge, QFormerConfig, QFormerModel, load_bridge,
                              load_qformer, save_phase2)


def small_registry():
    reg = ParamRegistry()
    rng = np.random.default_rng(0)
    reg.param("enc.w", rng.normal(0, 1, (3, 4)))
    reg.param("enc.b", np.zeros(4))
    reg.param("lm.emb", rng.normal(0, 1, (5, 2)), frozen=True)
    return reg


def test_duplicate_name_rejected():
    reg = small_registry()
    with pytest.raises(ValueError):
        reg.param("enc.w", np.zeros(1))


def test_digest_stable_under_frozen_and_changes_on_write():
    reg = small_registry()
    d0 = reg.digest("lm.emb")
    assert d0 == reg.digest("lm.emb")
    reg["enc.w"].data += 1.0
    assert reg.digest("enc.w") != small_registry().digest("enc.w")
    assert reg.digest("lm.emb") == d0


def test_roundtrip_bytes_identical(tmp_path):
    reg = small_registry()
    p1 = tmp_path / "a.ckpt"
    save_checkpoint(reg, p1, meta={"stage": "t"})
    meta, values, frozen = load_checkpoint(p1)
    assert meta == {"stage": "t"}
    assert frozen == {"enc.w": False, "enc.b": False, "lm.emb": True}

    reg2 = ParamRegistry()
    for name, arr in values.items():
        reg2.param(name, arr, frozen=frozen[name])
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(reg2, p2, meta={"stage": "t"})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.with_suffix(".ckpt.bin").read_bytes() == p2.with_suffix(".ckpt.bin").read_bytes()


def test_truncated_blob_refused(tmp_path):
    reg = small_registry()
    p = tmp_path / "c.ckpt"
    save_checkpoint(reg, p)
    blob = p.with_suffix(".ckpt.bin")
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValueError, match="digest mismatch"):
        load_checkpoint(p)


def test_edited_shape_refused_with_field_name(tmp_path):
    reg = small_registry()
    p = tmp_path / "d.ckpt"
    save_checkpoint(reg, p)
    manifest = json.loads(p.read_text())
    manifest["params"][0]["shape"] = [2, 4]
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(p)


def test_load_values_shape_checked():
    reg = small_registry()
    with pytest.raises(ValueError, match="shape mismatch"):
        reg.load_values({"enc.b": np.zeros((2, 2))})
    reg.load_values({"enc.b": np.ones(4)})
    assert np.all(reg["enc.b"].data == 1.0)


def test_combined_digest_covers_prefix():
    reg = small_registry()
    d = reg.combined_digest("enc.")
    reg["lm.emb"].data += 1.0
    assert reg.combined_digest("enc.") == d
    reg["enc.b"].data += 1.0
    assert reg.combined_digest("enc.") != d


def test_version_mismatch_refused(tmp_path):
    p = tmp_path / "v.ckpt"
    save_checkpoint(small_registry(), p)
    manifest = json.loads(p.read_text())
    manifest["version"] = 2
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version 2"):
        load_checkpoint(p)


@pytest.mark.parametrize("edit,match", [
    (lambda m: m["params"][1].update(offset=24), "overlaps"),
    (lambda m: m["params"][1].update(offset=40), "gap"),
    (lambda m: m["params"].pop(), "end at byte 128"),
], ids=["overlap", "gap", "short"])
def test_entries_must_tile_blob(tmp_path, edit, match):
    # entries in name order: enc.b [0, 32), enc.w [32, 128), lm.emb [128, 208)
    p = tmp_path / "t.ckpt"
    save_checkpoint(small_registry(), p)
    manifest = json.loads(p.read_text())
    edit(manifest)
    p.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=match):
        load_checkpoint(p)


@pytest.mark.parametrize("loader,message", [
    (load_clip, "not an elixr-c checkpoint"),
    (load_qformer, "not a qformer checkpoint"),
    (load_lm, "not an lm checkpoint"),
    (load_bridge, "not a bridge checkpoint"),
], ids=["clip", "qformer", "lm", "bridge"])
def test_loaders_reject_wrong_kind(tmp_path, loader, message):
    p = tmp_path / "w.ckpt"
    save_checkpoint(small_registry(), p, meta={"kind": "other"})
    with pytest.raises(ValueError, match=f"{message}: kind='other'"):
        loader(p)


def test_load_lm_restores_values_and_frozen_flags(tmp_path):
    reg = ParamRegistry()
    lm = DecoderLM(reg, LmConfig(vocab_size=12, dim=8, blocks=1, heads=2, max_len=16),
                   np.random.default_rng(1))
    reg["lm.head.b"].data += 0.5  # differs from a fresh init
    lm.freeze()
    p = tmp_path / "lm.ckpt"
    save_lm(lm, p)
    loaded = load_lm(p)
    assert loaded.cfg == lm.cfg
    assert loaded.digest() == lm.digest()
    assert loaded.frozen


def test_load_bridge_restores_values_and_frozen_flags(tmp_path):
    qf = QFormerModel(QFormerConfig(n_queries=2, dim=8, blocks=1, heads=2, proj_dim=4,
                                    grid_dim=8, text_max_len=8, vocab_size=12), seed=0)
    reg = ParamRegistry()
    bridge = Phase2Bridge(reg, 8, 6, 10, np.random.default_rng(2))
    bridge.fc2.b.data += 0.25
    reg["bridge.fc1.w"].freeze()
    save_phase2(qf, bridge, reg, tmp_path / "qf.ckpt", tmp_path / "br.ckpt", lm_digest="d")
    loaded_reg, loaded, meta = load_bridge(tmp_path / "br.ckpt")
    assert meta["lm_digest"] == "d"
    assert loaded_reg.combined_digest() == reg.combined_digest()
    assert {p.name: p.frozen for p in loaded_reg} == {p.name: p.frozen for p in reg}
    x = Tensor(np.random.default_rng(3).normal(0, 1, (2, 8)))
    assert np.array_equal(loaded(x).data, bridge(x).data)
