import json
import re
import warnings

import numpy as np
import pytest

from alignvae import alignment, cli, corpus, semeval, training
from alignvae import model as model_mod
from alignvae.cli import main
from alignvae.corpus import load_parallel, synth_corpus, write_corpus
from alignvae.model import ModelConfig
from conftest import as_version, set_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **overrides):
    paths = overrides.pop("paths")
    lines = ["[paths]"]
    lines += [f"{k} = {v}" for k, v in paths.items()]
    lines.append("[model]")
    lines += [f"{k} = {v}" for k, v in overrides.pop("model", {}).items()]
    lines.append("[training]")
    lines += [f"{k} = {v}" for k, v in overrides.pop("training", {}).items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(
        capsys, "synth", "--seed", "4", "--v1", "8", "--v2", "8",
        "--pairs", "60", "--len", "2", "5", "--out", str(out),
    )
    assert code == 0
    return out


def make_checkpoint(tmp_path, capsys, corpus_lines):
    """Train one epoch on ``corpus_lines`` as both sides; returns the
    checkpoint path and the L1 file."""
    l1 = tmp_path / "c1.txt"
    l2 = tmp_path / "c2.txt"
    l1.write_text("\n".join(corpus_lines) + "\n")
    l2.write_text("\n".join(corpus_lines) + "\n")
    cfg_path = tmp_path / "cfg.ini"
    write_config(
        cfg_path,
        paths={
            "train_l1": l1, "train_l2": l2,
            "checkpoint": tmp_path / "ckpt.json",
            "metrics": tmp_path / "m.tsv",
        },
        model={"d": 3, "d_x": 4},
        training={"epochs": 1, "batch": 10, "seed": 3},
    )
    assert run(capsys, "train", "--config", str(cfg_path))[0] == 0
    return tmp_path / "ckpt.json", l1


def type_table(ckpt_path, sentences):
    """The type embedding table of ``sentences`` under a saved checkpoint."""
    ckpt = training.load_checkpoint(ckpt_path)
    vocab1, _ = ckpt.vocabularies()
    ids = [(corpus.NULL_ID, *vocab1.encode(toks)) for toks in sentences]
    table = semeval.type_embeddings_for_corpus(ids, ckpt.build_store(), ckpt.model_cfg)
    return table, vocab1


class TestSynth:
    def test_writes_three_files_with_counts(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, _ = run(
            capsys, "synth", "--seed", "1", "--v1", "30", "--v2", "30",
            "--pairs", "3000", "--len", "3", "8", "--shuffle", "--out", str(out),
        )
        assert code == 0
        assert "3000 sentence pairs" in stdout
        for name in ("l1.txt", "l2.txt", "gold.txt"):
            assert (out / name).exists()
        assert len((out / "l1.txt").read_text().splitlines()) == 3000
        assert len((out / "l2.txt").read_text().splitlines()) == 3000

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "synth", "--seed", "9", "--v1", "10", "--v2", "12",
                "--pairs", "40", "--len", "1", "6", "--shuffle", "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        for name in ("l1.txt", "l2.txt", "gold.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_zero_pairs_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "synth", "--seed", "1", "--pairs", "0", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "empty corpus" in stderr

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "neg"
        code, stdout, stderr = run(capsys, "synth", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == ["error: seed must be non-negative, got -1"]
        assert not out.exists()


class TestTrain:
    def test_smoke_one_epoch(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "val_l1": synth_dir / "l1.txt",
                "val_l2": synth_dir / "l2.txt",
                "gold": synth_dir / "gold.txt",
                "checkpoint": tmp_path / "ckpt.json",
                "metrics": tmp_path / "metrics.tsv",
            },
            model={"encoder": "bow", "d": 4, "d_x": 4},
            training={"epochs": 1, "batch": 20, "seed": 1},
        )
        code, stdout, _ = run(capsys, "train", "--config", str(cfg_path))
        assert code == 0
        assert (tmp_path / "ckpt.json").exists()
        assert len((tmp_path / "metrics.tsv").read_text().splitlines()) == 1
        ckpt = training.load_checkpoint(tmp_path / "ckpt.json")
        assert ckpt.model_cfg.encoder == "bow"

    def test_rerun_is_deterministic(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        metrics = tmp_path / "metrics.tsv"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "val_l1": synth_dir / "l1.txt",
                "val_l2": synth_dir / "l2.txt",
                "gold": synth_dir / "gold.txt",
                "checkpoint": tmp_path / "ckpt.json",
                "metrics": metrics,
            },
            model={"d": 3, "d_x": 4},
            training={"epochs": 2, "batch": 20, "seed": 7},
        )
        blobs = []
        for _ in range(2):
            assert run(capsys, "train", "--config", str(cfg_path))[0] == 0
            blobs.append((metrics.read_bytes(), (tmp_path / "ckpt.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_hierarchical_config_routes(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "checkpoint": tmp_path / "ckpt.json",
                "metrics": tmp_path / "metrics.tsv",
            },
            model={"d": 3, "d_x": 4, "d_s": 2, "hierarchical": "true"},
            training={"epochs": 1, "batch": 30, "seed": 1},
        )
        code, _, _ = run(capsys, "train", "--config", str(cfg_path))
        assert code == 0
        ckpt = training.load_checkpoint(tmp_path / "ckpt.json")
        assert ckpt.model_cfg.hierarchical is True
        assert "G1" in ckpt.params

    def test_hierarchical_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(tmp_path / "cfg.ini"), "--hierarchical", "true"])
        assert exc.value.code == 2
        assert "--hierarchical" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [
        ("val_l1",), ("val_l2",), ("gold",),
        ("val_l1", "val_l2"), ("val_l1", "gold"), ("val_l2", "gold"),
    ])
    def test_partial_validation_paths_exit_2(self, synth_dir, tmp_path, capsys, given):
        files = {"val_l1": "l1.txt", "val_l2": "l2.txt", "gold": "gold.txt"}
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                **{key: synth_dir / files[key] for key in given},
                "checkpoint": tmp_path / "ckpt.json",
                "metrics": tmp_path / "metrics.tsv",
            },
            model={"d": 3, "d_x": 4},
            training={"epochs": 1, "batch": 30, "seed": 1},
        )
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2
        assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
        lacking = stderr.split("lacks", 1)[1]
        assert all((key in lacking) == (key not in given) for key in files)
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("case", ["sentence", "l2_position", "l1_position"])
    def test_validation_gold_outside_the_validation_set_exits_2(self, synth_dir, tmp_path,
                                                               capsys, case):
        l1 = (synth_dir / "l1.txt").read_text().splitlines()
        l2 = (synth_dir / "l2.txt").read_text().splitlines()
        n, m1 = len(l2[2].split()), len(l1[2].split())
        sid, j, i = {"sentence": (len(l1) + 1, 1, 1), "l2_position": (3, n + 1, 1),
                     "l1_position": (3, 1, m1 + 1)}[case]
        gold = tmp_path / "gold.txt"
        gold.write_text((synth_dir / "gold.txt").read_text() + f"{sid} {j} {i} S\n")
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                "val_l1": synth_dir / "l1.txt", "val_l2": synth_dir / "l2.txt", "gold": gold,
                "checkpoint": tmp_path / "ckpt.json", "metrics": tmp_path / "metrics.tsv",
            },
            model={"d": 3, "d_x": 4},
            training={"epochs": 1, "batch": 30, "seed": 1},
        )
        code, stdout, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: {gold}: sentence {sid} link {j} {i} is ")
        assert len(stderr.splitlines()) == 1
        assert not (tmp_path / "ckpt.json").exists() and not (tmp_path / "metrics.tsv").exists()

    def test_unknown_config_key_exits_2(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            f"[paths]\ntrain_l1 = {synth_dir/'l1.txt'}\ntrain_l2 = {synth_dir/'l2.txt'}\n"
            "[training]\nlearning_rate = 0.1\n"
        )
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2
        assert "learning_rate" in stderr

    @pytest.mark.parametrize("text", [
        "train_l1 = a.txt\n",  # no section header
        "[paths]\ntrain_l1 = a.txt\ntrain_l1 = b.txt\n",  # duplicate key
        "[paths]\ntrain_l1 = a\n  b = c\n  [x\n= y\n",  # continuation and parse errors
        "[paths]\ntrain_l1 = 100%.txt\n",  # a % that interpolation cannot read
    ], ids=["no_header", "duplicate_key", "parse_error", "interpolation"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(text, encoding="utf-8")
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2
        assert stderr.startswith("error: malformed config") and len(stderr.splitlines()) == 1

    def test_config_with_byte_order_mark_parses_as_without(self, tmp_path):
        text = "[paths]\ntrain_l1 = a.txt\ntrain_l2 = b.txt\n[model]\nd = 4\n"
        (tmp_path / "plain.ini").write_text(text, encoding="utf-8")
        (tmp_path / "bom.ini").write_text(text, encoding="utf-8-sig")
        assert cli._parse_config(tmp_path / "bom.ini") == cli._parse_config(tmp_path / "plain.ini")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_bytes(b"[paths]\ntrain_l1 = caf\xe9.txt\n")
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2
        assert stderr == f"error: {cfg_path}: not UTF-8 text\n"

    def test_outputs_write_through_symlinks(self, synth_dir, tmp_path, capsys):
        real = tmp_path / "real"
        real.mkdir()
        names = ("ckpt.json", "metrics.tsv", "pred.txt")
        for name in names:
            (real / name).write_text("old\n", encoding="utf-8")
            (tmp_path / name).symlink_to(real / name)
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "val_l1": synth_dir / "l1.txt",
                "val_l2": synth_dir / "l2.txt",
                "gold": synth_dir / "gold.txt",
                "checkpoint": tmp_path / "ckpt.json",
                "metrics": tmp_path / "metrics.tsv",
            },
            model={"d": 3, "d_x": 4},
            training={"epochs": 1, "batch": 20, "seed": 1},
        )
        assert run(capsys, "train", "--config", str(cfg_path))[0] == 0
        code, _, _ = run(
            capsys, "align", "--checkpoint", str(tmp_path / "ckpt.json"),
            str(synth_dir / "l1.txt"), str(synth_dir / "l2.txt"), str(tmp_path / "pred.txt"),
        )
        assert code == 0
        for name in names:
            assert (tmp_path / name).is_symlink()
        assert training.load_checkpoint(real / "ckpt.json").model_cfg.d == 3
        assert len((real / "metrics.tsv").read_text().splitlines()) == 1
        assert alignment.parse_gold(real / "pred.txt")

    def test_ibm1_baseline_route(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "checkpoint": tmp_path / "table.txt",
                "metrics": tmp_path / "em.tsv",
            },
            training={"em_iters": 5},
        )
        code, stdout, _ = run(capsys, "train", "--config", str(cfg_path), "--baseline", "ibm1")
        assert code == 0
        assert "table" in stdout
        table = (tmp_path / "table.txt").read_text().splitlines()
        assert table and all(len(line.split()) == 3 for line in table)

    @pytest.mark.parametrize("key, value, baseline", [
        ("lr", "nan", None), ("lr", "inf", None), ("lr", "-1", None), ("lr", "0", None),
        ("epochs", "-2", None), ("max_vocab", "-1", None), ("max_vocab", "0", None),
        ("em_iters", "-3", "ibm1"), ("seed", str(2**63), None),
    ])
    def test_out_of_range_training_value_exits_2(self, synth_dir, tmp_path, capsys,
                                                 key, value, baseline):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "checkpoint": tmp_path / "out.txt",
                "metrics": tmp_path / "m.tsv",
            },
            # the IBM1 run refuses the joint model's keys before their values
            model={} if baseline else {"d": 4, "d_x": 6},
            training={key: value} if baseline else {"epochs": 1, "batch": 20, key: value},
        )
        argv = ["train", "--config", str(cfg_path)] + (["--baseline", baseline] if baseline else [])
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
        assert key in stderr and value in stderr
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("baseline,model,training,key,reader", [
        (None, {}, {"em_iters": "-1"}, "'em_iters' in [training]", "--baseline ibm1"),
        (None, {"d_s": "-5"}, {}, "'d_s' in [model]", "hierarchical = true"),
        (None, {"hierarchical": "false", "d_s": "16"}, {}, "'d_s' in [model]",
         "hierarchical = true"),
        ("ibm1", {"encoder": "xyz"}, {}, "'encoder' in [model]", "the joint model"),
        ("ibm1", {"d": "-5"}, {"em_iters": "2"}, "'d' in [model]", "the joint model"),
        *(("ibm1", {}, {key: value}, f"{key!r} in [training]", "the joint model")
          for key, value in [("epochs", "1"), ("batch", "20"), ("lr", "0.1"), ("n_neg", "5"),
                             ("seed", "2"), ("css", "false")]),
        # IBM1 reads no validation set: each of its paths is refused on its own
        *(("ibm1", {}, {}, f"{key!r} in [paths]", "the joint model")
          for key in ("val_l1", "val_l2", "gold")),
    ])
    def test_key_the_run_never_reads_exits_2(self, synth_dir, tmp_path, capsys, baseline,
                                             model, training, key, reader):
        """A config key that the chosen run ignores is refused by name, with
        what would read it, before any value is checked or data is read."""
        cfg_path = tmp_path / "cfg.ini"
        paths = {"train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                 "checkpoint": tmp_path / "out.txt", "metrics": tmp_path / "m.tsv"}
        if key.endswith("in [paths]"):  # a file that fails to parse as gold if read
            (tmp_path / "bad_gold.txt").write_text("x y z\n", encoding="utf-8")
            paths[key.split("'")[1]] = tmp_path / "bad_gold.txt"
        write_config(cfg_path, paths=paths, model=model, training=training)
        argv = ["train", "--config", str(cfg_path)] + (["--baseline", baseline] if baseline else [])
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: config key {key} needs {reader}")
        assert len(stderr.splitlines()) == 1
        assert not (tmp_path / "out.txt").exists() and not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("training, message", [
        ({"epochs": 0, "batch": 0}, "error: batch_size must be >= 1, got 0\n"),
        ({"css": "false", "n_neg": -5}, "error: n_neg must be >= 0, got -5\n"),
    ], ids=["batch_0_with_epochs_0", "n_neg_-5_with_css_off"])
    def test_out_of_range_value_that_would_go_unused_exits_2(self, synth_dir, tmp_path,
                                                             capsys, training, message):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "checkpoint": tmp_path / "out.txt",
                "metrics": tmp_path / "m.tsv",
            },
            model={"d": 4, "d_x": 6},
            training=training,
        )
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert (code, stderr) == (2, message)
        assert not (tmp_path / "out.txt").exists()

    def test_bad_learning_rate_is_the_only_line_with_empty_gold(self, synth_dir, tmp_path,
                                                                capsys):
        (tmp_path / "empty_gold.txt").write_text("")
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "val_l1": synth_dir / "l1.txt",
                "val_l2": synth_dir / "l2.txt",
                "gold": tmp_path / "empty_gold.txt",
                "checkpoint": tmp_path / "out.txt",
                "metrics": tmp_path / "m.tsv",
            },
            model={"d": 4, "d_x": 6},
            training={"epochs": 1, "batch": 20, "lr": "nan"},
        )
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert (code, stderr) == (2, "error: learning rate lr must be finite and > 0, got nan\n")

    @pytest.mark.parametrize("value", ["", "m\0.tsv"], ids=["empty", "nul"])
    def test_unusable_path_exits_2_before_training(self, synth_dir, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={"train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                   "checkpoint": tmp_path / "out.txt", "metrics": value},
            model={"d": 4, "d_x": 6},
            training={"epochs": 1, "batch": 20},
        )
        code, stdout, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert (code, stdout, stderr) == (2, "", f"error: bad value for 'metrics': {value!r}\n")

    def test_failure_after_training_prints_one_stderr_line(self, synth_dir, tmp_path, capsys):
        """Epoch lines go to stdout, so a checkpoint that cannot be written
        leaves the error line alone on stderr."""
        (tmp_path / "empty_gold.txt").write_text("")
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={"train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                   "val_l1": synth_dir / "l1.txt", "val_l2": synth_dir / "l2.txt",
                   "gold": tmp_path / "empty_gold.txt",  # a warning, held back
                   "checkpoint": tmp_path, "metrics": tmp_path / "m.tsv"},
            model={"d": 4, "d_x": 6},
            training={"epochs": 2, "batch": 20},
        )
        code, stdout, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2
        assert [line.split("\t")[0] for line in stdout.splitlines()] == ["0", "1"]
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_empty_gold_warning_prints_after_success(self, synth_dir, tmp_path, capsys):
        (tmp_path / "empty_gold.txt").write_text("# no links\n")
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={"train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                   "val_l1": synth_dir / "l1.txt", "val_l2": synth_dir / "l2.txt",
                   "gold": tmp_path / "empty_gold.txt",
                   "checkpoint": tmp_path / "out.txt", "metrics": tmp_path / "m.tsv"},
            model={"d": 4, "d_x": 6},
            training={"epochs": 1, "batch": 20},
        )
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert (code, stderr) == (0, "warning: empty validation gold; "
                                     "model selection falls back to final epoch\n")
        assert training.load_checkpoint(tmp_path / "out.txt").best_val_aer is None

    @pytest.mark.parametrize("text", ["Unable to allocate 8.00 EiB for an array", ""])
    def test_allocation_failure_exits_2(self, synth_dir, tmp_path, capsys, monkeypatch, text):
        """A model too large to allocate ends in one line, not a traceback;
        the allocation itself is stubbed."""
        def refuse(shapes, seed):
            raise MemoryError(text)

        monkeypatch.setattr(model_mod, "init_params", refuse)
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={"train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                   "checkpoint": tmp_path / "out.txt", "metrics": tmp_path / "m.tsv"},
            model={"d": 4, "d_x": 6},
            training={"epochs": 1, "batch": 20},
        )
        code, stdout, stderr = run(capsys, "train", "--config", str(cfg_path))
        line = f"error: out of memory: {text}\n" if text else "error: out of memory\n"
        assert (code, stdout, stderr) == (2, "", line)
        assert not (tmp_path / "out.txt").exists()

    def test_training_state_past_host_memory_exits_2(self, synth_dir, tmp_path, capsys,
                                                     monkeypatch):
        """A model whose parameters, gradients and Adam moments would not fit
        the host's memory (here made small) is refused in one line before any
        parameter array is allocated."""
        def refuse(shape, seed):
            raise AssertionError(f"allocated {shape}")

        monkeypatch.setattr(model_mod, "host_memory_bytes", lambda: 1000)
        monkeypatch.setattr(model_mod, "glorot_init", refuse)
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={"train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                   "checkpoint": tmp_path / "out.txt", "metrics": tmp_path / "m.tsv"},
            model={"d": 4, "d_x": 6},
            training={"epochs": 1, "batch": 20},
        )
        code, stdout, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert (code, stdout) == (2, "")
        assert re.fullmatch(r"error: training this model needs [\d,]+ bytes \(32 per parameter "
                            r"value\), more than the host's 1,000 bytes of memory\n", stderr)
        assert not (tmp_path / "out.txt").exists()
        assert not (tmp_path / "m.tsv").exists()

    @pytest.mark.parametrize("model,name,shape", [
        ({"d_x": 2**62}, "E", r"\(\d+, 4611686018427387904\)"),
        ({"d": 2**62}, "M1", r"\(4611686018427387904, 128\)"),
        ({"d_s": 2**62, "hierarchical": "true"}, "sent_Mu", r"\(4611686018427387904, 128\)"),
    ])
    def test_shape_numpy_cannot_hold_exits_2(self, synth_dir, tmp_path, capsys, model, name,
                                             shape):
        """A dimension whose parameter has more float64 values than one numpy
        array can hold is refused by name before anything is allocated."""
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={"train_l1": synth_dir / "l1.txt", "train_l2": synth_dir / "l2.txt",
                   "checkpoint": tmp_path / "out.txt", "metrics": tmp_path / "m.tsv"},
            model=model,
            training={"epochs": 1, "batch": 20},
        )
        code, stdout, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert (code, stdout) == (2, "")
        assert re.fullmatch(f"error: parameter {name} of shape {shape} is too large "
                            "for one float64 array\n", stderr)
        assert not (tmp_path / "out.txt").exists()


def perfect_checkpoint(tmp_path, synth, vocab1, vocab2):
    """Hand-built model whose posterior means make alignment exact: each
    token's mean is a scaled one-hot of its dictionary image."""
    v = len(vocab1)
    cfg = ModelConfig(encoder="bow", d=len(vocab2), d_x=v)
    params_values = {}
    eye = np.eye(v)
    params_values["E"] = eye.copy()
    m1 = np.zeros((len(vocab2), v))
    for s_tok, t_tok in synth.mapping.items():
        m1[vocab2.id(t_tok), vocab1.id(s_tok)] = 10.0
    m1[0, 0] = 10.0  # NULL predicts the never-observed NULL class
    params_values["M1"] = m1
    params_values["d1"] = np.zeros(len(vocab2))
    params_values["M2"] = np.zeros((len(vocab2), v))
    params_values["d2"] = np.zeros(len(vocab2))
    params_values["W1"] = np.zeros((v, len(vocab2)))
    params_values["b1"] = np.zeros(v)
    params_values["W2"] = np.eye(len(vocab2))
    params_values["b2"] = np.zeros(len(vocab2))
    ckpt = training.Checkpoint(
        model_cfg=cfg,
        vocab_l1=list(vocab1.tokens),
        vocab_l2=list(vocab2.tokens),
        params=params_values,
    )
    path = tmp_path / "perfect.json"
    training.save_checkpoint(ckpt, path)
    return path


class TestAlign:
    def test_perfect_model_reproduces_gold(self, tmp_path, capsys):
        synth = synth_corpus(seed=2, v1=6, v2=6, n_pairs=50, len_range=(2, 5), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        _, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        ckpt_path = perfect_checkpoint(tmp_path, synth, vocab1, vocab2)
        out = tmp_path / "pred.txt"
        code, _, _ = run(
            capsys, "align", "--checkpoint", str(ckpt_path),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(out),
        )
        assert code == 0
        pred = alignment.parse_gold(out)
        gold = alignment.parse_gold(tmp_path / "gold")
        assert {sid: g.sure for sid, g in pred.items()} == {
            sid: g.sure for sid, g in gold.items()
        }

    def test_empty_l2_line_gets_no_links(self, tmp_path, capsys):
        synth = synth_corpus(seed=3, v1=5, v2=5, n_pairs=3, len_range=(2, 3), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        lines = (tmp_path / "l2").read_text().splitlines()
        lines[1] = ""
        (tmp_path / "l2").write_text("\n".join(lines) + "\n")
        _, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2", max_len=None)
        ckpt_path = perfect_checkpoint(tmp_path, synth, vocab1, vocab2)
        out = tmp_path / "pred.txt"
        code, _, _ = run(
            capsys, "align", "--checkpoint", str(ckpt_path),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(out),
        )
        assert code == 0
        pred = alignment.parse_gold(out)
        assert 2 not in pred  # sentence id 2 has no links at all

    def test_empty_files_give_no_links(self, tmp_path, capsys):
        ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        for name in ("e1", "e2"):
            (tmp_path / name).write_text("")
        out = tmp_path / "pred.txt"
        code, stdout, _ = run(capsys, "align", "--checkpoint", str(ckpt),
                              str(tmp_path / "e1"), str(tmp_path / "e2"), str(out))
        assert code == 0 and "alignments for 0 sentences" in stdout
        assert alignment.parse_gold(out) == {}

    def test_ibm1_empty_l2_line_gets_no_links(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("<null> x 0.25\na x 0.5\nb y 0.5\n", encoding="utf-8")
        (tmp_path / "l1").write_text("a b\na\nb a\n")
        (tmp_path / "l2").write_text("y x\n\nx\n")
        out = tmp_path / "pred.txt"
        code, _, _ = run(
            capsys, "align", "--baseline", "ibm1", "--checkpoint", str(table),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1:] == ["1 1 2 S", "1 2 1 S", "3 1 2 S"]

    def test_ibm1_baseline_pipeline(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert run(
            capsys, "synth", "--seed", "5", "--v1", "8", "--v2", "8",
            "--pairs", "150", "--len", "2", "5", "--out", str(out_dir),
        )[0] == 0
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": out_dir / "l1.txt",
                "train_l2": out_dir / "l2.txt",
                "checkpoint": tmp_path / "table.txt",
                "metrics": tmp_path / "em.tsv",
            },
            training={"em_iters": 8},
        )
        assert run(capsys, "train", "--config", str(cfg_path), "--baseline", "ibm1")[0] == 0
        pred_path = tmp_path / "pred.txt"
        code, _, _ = run(
            capsys, "align", "--baseline", "ibm1", "--checkpoint", str(tmp_path / "table.txt"),
            str(out_dir / "l1.txt"), str(out_dir / "l2.txt"), str(pred_path),
        )
        assert code == 0
        code, stdout, _ = run(
            capsys, "eval", "aer", str(pred_path), str(out_dir / "gold.txt")
        )
        assert code == 0
        assert float(stdout.splitlines()[0]) <= 0.05

    @pytest.mark.parametrize("prob", ["nan", "-0.25"])
    def test_ibm1_unscorable_table_exits_2(self, tmp_path, capsys, prob):
        table = tmp_path / "table.txt"
        table.write_text(f"<null> x 0.5\na x {prob}\n", encoding="utf-8")
        (tmp_path / "l1").write_text("a\n")
        (tmp_path / "l2").write_text("x\n")
        code, _, err = run(
            capsys, "align", "--baseline", "ibm1", "--checkpoint", str(table),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(tmp_path / "out"),
        )
        assert code == 2 and not (tmp_path / "out").exists()
        assert err.startswith(f"error: {table}:2: ") and len(err.splitlines()) == 1

    def test_ibm1_duplicate_entry_exits_2_naming_both_lines(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("<null> x 0.5\na x 0.25\na y 0.75\na x 0.5\n", encoding="utf-8")
        (tmp_path / "l1").write_text("a\n")
        (tmp_path / "l2").write_text("x\n")
        code, _, err = run(
            capsys, "align", "--baseline", "ibm1", "--checkpoint", str(table),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(tmp_path / "out"),
        )
        assert code == 2 and not (tmp_path / "out").exists()
        assert err == f"error: {table}:4: entry 'a x' already given on line 2\n"

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        (tmp_path / "l1").write_text("a\n")
        (tmp_path / "l2").write_text("x\n")
        code, _, _ = run(
            capsys, "align", "--checkpoint", str(tmp_path / "nope.json"),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(tmp_path / "out"),
        )
        assert code == 2

    def test_non_utf8_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        ckpt_path.write_bytes(b'{"format": "caf\xe9"}')
        (tmp_path / "l1").write_text("a\n")
        (tmp_path / "l2").write_text("x\n")
        code, _, err = run(
            capsys, "align", "--checkpoint", str(ckpt_path),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(tmp_path / "out"),
        )
        assert code == 2
        assert err == f"error: {ckpt_path}: not UTF-8 text\n"

    @pytest.mark.parametrize("edit", [
        "missing_param", "unknown_config_key", "top_level_number", "params_list",
        "vocab_number", "truncated_file", "short_payload", "non_base64_payload",
        "version_true", "deeply_nested",
    ])
    def test_broken_checkpoint_exits_2(self, tmp_path, capsys, edit):
        synth = synth_corpus(seed=2, v1=6, v2=6, n_pairs=10, len_range=(2, 5), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        _, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        ckpt_path = perfect_checkpoint(tmp_path, synth, vocab1, vocab2)
        text = ckpt_path.read_text()
        doc = json.loads(text)
        if edit == "missing_param":
            del doc["params"]["b2"]
        elif edit == "unknown_config_key":
            doc["config"]["layers"] = 2
        elif edit == "top_level_number":
            doc = 5
        elif edit == "params_list":
            doc["params"] = []
        elif edit == "vocab_number":
            doc["vocab_l1"] = 5
        elif edit == "short_payload":
            doc["params"]["M1"]["b64"] = doc["params"]["M1"]["b64"][:-12]
        elif edit == "non_base64_payload":
            doc["params"]["M1"]["b64"] = "*" + doc["params"]["M1"]["b64"][1:]
        elif edit == "version_true":
            doc = as_version(doc, 1)
            doc["version"] = True
        if edit == "truncated_file":
            text = text[: len(text) // 2]
        elif edit == "deeply_nested":
            text = "[" * 100_000 + "]" * 100_000  # beyond the parser's recursion limit
        else:
            text = json.dumps(doc)
        ckpt_path.write_text(text)
        code, _, err = run(
            capsys, "align", "--checkpoint", str(ckpt_path),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(tmp_path / "out"),
        )
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    @pytest.mark.parametrize("edit, named", [
        ("d_string", "'d'"), ("d_float", "'d'"), ("d_missing", "'d'"),
        ("hierarchical_string", "'hierarchical'"), ("nan_in_M1", "'M1'"),
        ("infinity_in_W2", "'W2'"),
    ])
    def test_mistyped_config_or_non_finite_parameter_exits_2(self, tmp_path, capsys,
                                                            edit, named, version):
        synth = synth_corpus(seed=2, v1=6, v2=6, n_pairs=10, len_range=(2, 5), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        _, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        ckpt_path = perfect_checkpoint(tmp_path, synth, vocab1, vocab2)
        doc = as_version(json.loads(ckpt_path.read_text()), version)
        config = doc["config"]
        if edit == "d_string":
            config["d"] = str(config["d"])
        elif edit == "d_float":
            config["d"] = float(config["d"])  # same shapes, so only the type is wrong
        elif edit == "d_missing":
            del config["d"]  # would fall back to the default width
        elif edit == "hierarchical_string":
            config["hierarchical"] = "yes"
        elif edit == "nan_in_M1":
            set_value(doc, "M1", 0, float("nan"))
        else:
            set_value(doc, "W2", -1, float("inf"))
        ckpt_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "align", "--checkpoint", str(ckpt_path),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(out),
        )
        assert code == 2 and not out.exists()
        assert err.startswith("error: checkpoint") and len(err.splitlines()) == 1
        assert named in err

    def test_version_1_checkpoint_aligns_like_version_2(self, tmp_path, capsys):
        synth = synth_corpus(seed=2, v1=6, v2=6, n_pairs=50, len_range=(2, 5), shuffle_l2=True)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        _, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        v2_path = perfect_checkpoint(tmp_path, synth, vocab1, vocab2)
        # the format written before version 2, by hand: shape + a list of numbers
        v1_path = tmp_path / "v1.json"
        ckpt = training.load_checkpoint(v2_path)
        doc = json.loads(v2_path.read_text())
        doc["version"] = 1
        doc["params"] = {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
                         for name, arr in ckpt.params.items()}
        v1_path.write_text(json.dumps(doc) + "\n")
        v1 = training.load_checkpoint(v1_path)
        assert list(v1.params) == list(ckpt.params)
        assert all(np.array_equal(v1.params[n], a) for n, a in ckpt.params.items())
        outputs = []
        for path in (v1_path, v2_path):
            out = tmp_path / f"pred-{path.stem}.txt"
            code, _, err = run(capsys, "align", "--checkpoint", str(path),
                               str(tmp_path / "l1"), str(tmp_path / "l2"), str(out))
            assert (code, err) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") > 50

    def test_length_mismatch_names_both_files(self, tmp_path, capsys):
        l1, l2, out = tmp_path / "l1", tmp_path / "l2", tmp_path / "out"
        l1.write_text("a\nb\n")
        l2.write_text("x\n")
        code, _, err = run(
            capsys, "align", "--checkpoint", str(tmp_path / "ckpt.json"),
            str(l1), str(l2), str(out),
        )
        assert code == 2 and not out.exists()
        assert err == f"error: parallel files differ in length: {l1} has 2 lines, {l2} has 1\n"

    @pytest.mark.parametrize("key,edit", [
        ("vocab_l1", "renamed_reserved"), ("vocab_l1", "repeated_token"),
        ("vocab_l2", "repeated_token"), ("vocab_l2", "reserved_again"),
    ])
    def test_vocabulary_that_does_not_rebuild_exits_2(self, tmp_path, capsys, key, edit):
        synth = synth_corpus(seed=2, v1=6, v2=6, n_pairs=10, len_range=(2, 5), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        _, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        ckpt_path = perfect_checkpoint(tmp_path, synth, vocab1, vocab2)
        doc = json.loads(ckpt_path.read_text())
        vocab = doc[key]  # same length after every edit, so the shapes still fit
        if edit == "renamed_reserved":
            vocab[:2] = ["zz", "yy"]
        elif edit == "repeated_token":
            vocab[3] = vocab[2]  # every later token would shift by one id
        else:
            vocab[2] = "<null>"
        ckpt_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "align", "--checkpoint", str(ckpt_path),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(out),
        )
        assert code == 2 and not out.exists()
        assert err == (f"error: checkpoint field {key!r} is not a list of distinct "
                       f"strings starting '<null>', '<unk>'\n")


class TestEval:
    def test_aer_identical_pred_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("1 1 1 S\n1 2 2 S\n")
        code, stdout, _ = run(capsys, "eval", "aer", str(gold), str(gold))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "0.000000"
        assert "|A|=2" in lines[1] and "|S|=2" in lines[1] and "|P|=2" in lines[1]

    def test_aer_position_zero_exits_2(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("1 1 1 S\n1 0 1\n")
        code, stdout, err = run(capsys, "eval", "aer", str(gold), str(gold))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {gold}:2: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("sid", ["0", "-2"])
    def test_aer_sentence_id_below_1_exits_2(self, tmp_path, capsys, sid):
        pred, gold = tmp_path / "pred.txt", tmp_path / "gold.txt"
        pred.write_text("1 1 1\n")
        gold.write_text(f"1 1 1 S\n{sid} 1 1 S\n")
        code, stdout, err = run(capsys, "eval", "aer", str(pred), str(gold))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {gold}:2: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("bad", ["pred", "gold"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, bad):
        files = {name: tmp_path / f"{name}.txt" for name in ("pred", "gold")}
        for path in files.values():
            path.write_text("1 1 1 S\n", encoding="utf-8")
        files[bad].write_bytes(b"\xff\xfe1 1 1 S\n")
        code, stdout, err = run(capsys, "eval", "aer", str(files["pred"]), str(files["gold"]))
        assert code == 2 and stdout == ""
        assert err == f"error: {files[bad]}: not UTF-8 text\n"

    def test_lexsub_hand_fixture(self, tmp_path, capsys):
        data = tmp_path / "lst.tsv"
        data.write_text("w\t0\tw x\ta:2;b:0;c:1\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "eval", "lexsub", str(data))
        assert code == 0
        assert stdout.strip() == "0.857143"

    def test_lexsub_counts_unknown_tokens_in_one_warning(self, tmp_path, capsys):
        ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        data = tmp_path / "ls.tsv"
        data.write_text("bb\t1\taa bb zz\tcc:1;qq:0\nbb\t0\tbb yy\taa:1;bb:0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(capsys, "eval", "lexsub", str(data), "--checkpoint", str(ckpt))
        assert code == 0 and 0.0 <= float(stdout) <= 1.0
        assert err == "warning: read 3 tokens not in the checkpoint's L1 vocabulary as UNK\n"

    def test_lexsub_per_instance_output(self, tmp_path, capsys):
        data = tmp_path / "lst.tsv"
        data.write_text("w\t0\tw x\ta:2;b:0;c:1\n", encoding="utf-8")
        per = tmp_path / "per.tsv"
        code, _, _ = run(capsys, "eval", "lexsub", str(data), "--per-instance", str(per))
        assert code == 0
        lines = per.read_text().splitlines()
        assert lines[0].startswith("0\t")
        assert lines[-1].startswith("mean\t")

    @pytest.mark.parametrize("kind,flags,message", [
        ("lexsub", ["--checkpoint", "{ckpt}", "--metric", "cosine", "--reverse-kl"],
         "reverse KL ranking applies only to the kl metric"),
        ("lexsub", ["--reverse-kl"], "--metric and --reverse-kl need --checkpoint"),
        ("lexsub", ["--metric", "cosine"], "--metric and --reverse-kl need --checkpoint"),
        ("lexsub", ["--metric", "kl"], "--metric and --reverse-kl need --checkpoint"),
        ("wordsim", ["--corpus", "{text}"], "--corpus needs --checkpoint"),
    ], ids=["cosine-reverse-kl", "reverse-kl-no-model", "cosine-no-model", "kl-no-model",
            "corpus-no-model"])
    def test_option_that_would_do_nothing_exits_2(self, tmp_path, capsys, kind, flags, message):
        """Each of these options once ran and was silently ignored; the data
        would score without them, so only the option is refused."""
        ckpt, text = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        data = tmp_path / "data.txt"
        data.write_text("bb\t1\taa bb\tcc:1;aa:0\n" if kind == "lexsub" else "aa bb 1 4\nbb cc 2 3\n")
        argv = [arg.format(ckpt=ckpt, text=text) for arg in flags]
        code, stdout, err = run(capsys, "eval", kind, str(data), *argv)
        assert (code, stdout, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind,text", [
        ("lexsub", "w\t0\tw x\ta:2;b:lots\n"),
        ("lexsub", "w\tfirst\tw x\ta:2;b:0\n"),
        ("wordsim", "a b 1\nc d high\n"),
        ("wordsim", "a b 1 0.5\nc d 2 n/a\n"),
        ("wordsim", "a b 1 4\nc d nan 3\ne f 3 2\n"),
        ("wordsim", "a b 1 4\nc d 2 inf\ne f 3 2\n"),
        ("lexsub", "w\t0\tw x\ta:2;b:nan\n"),
    ])
    def test_malformed_number_exits_2(self, tmp_path, capsys, kind, text):
        data = tmp_path / "data.txt"
        data.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "eval", kind, str(data))
        assert code == 2
        assert f"{data}:" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text,reason", [
        ("w\t0\tw x\ta:1\nw\t5\tw x\ta:1\n", "target position 5 outside sentence"),
        ("w\t0\tw x\ta:1\nw\t1\tw x\ta:0;b:0\n", "no candidate with positive gold weight"),
    ])
    def test_invalid_lexsub_instance_exits_2_with_position(self, tmp_path, capsys, text, reason):
        data = tmp_path / "data.txt"
        data.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "eval", "lexsub", str(data))
        assert code == 2
        assert f"{data}:2: " in err and reason in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("with_model", [False, True])
    def test_lexsub_without_instances_exits_2(self, tmp_path, capsys, with_model):
        data = tmp_path / "lst.tsv"
        data.write_text("# no instances\n\n", encoding="utf-8")
        argv = ["eval", "lexsub", str(data)]
        if with_model:
            ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
            argv += ["--checkpoint", str(ckpt)]
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err == f"error: {data}: no lexical-substitution instances\n"

    @pytest.mark.parametrize("with_model", [False, True])
    def test_negative_lexsub_weight_exits_2_with_position(self, tmp_path, capsys, with_model):
        data, out = tmp_path / "lst.tsv", tmp_path / "gap.tsv"
        data.write_text("s03\t1\ts01 s03 s07\ts05:1;s08:-0.5\n", encoding="utf-8")
        argv = ["eval", "lexsub", str(data), "--per-instance", str(out)]
        if with_model:
            ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
            argv += ["--checkpoint", str(ckpt)]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err == f"error: {data}:1: negative gold weight\n"
        assert not out.exists()

    def test_wordsim_checkpoint_without_corpus_exits_2_before_reading(self, tmp_path, capsys):
        data = tmp_path / "ws.txt"
        data.write_text("aa bb 1\nbb cc 2\n", encoding="utf-8")
        code, stdout, err = run(capsys, "eval", "wordsim", str(data),
                                "--checkpoint", str(tmp_path / "nosuch.json"))
        assert (code, stdout) == (2, "")
        assert err == "error: wordsim with a checkpoint needs --corpus (L1 text)\n"

    def test_wordsim_reversed_scores(self, tmp_path, capsys):
        data = tmp_path / "ws.txt"
        data.write_text("a b 1 4\nc d 2 3\ne f 3 2\ng h 4 1\n")
        code, stdout, _ = run(capsys, "eval", "wordsim", str(data))
        assert code == 0
        assert stdout.strip() == "-1.000000"

    def test_wordsim_with_model(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "checkpoint": tmp_path / "ckpt.json",
                "metrics": tmp_path / "m.tsv",
            },
            model={"d": 3, "d_x": 4},
            training={"epochs": 1, "batch": 30, "seed": 2},
        )
        assert run(capsys, "train", "--config", str(cfg_path))[0] == 0
        tokens = (synth_dir / "l1.txt").read_text().split()
        t1, t2, t3 = tokens[0], tokens[1], tokens[2]
        data = tmp_path / "ws.txt"
        data.write_text(f"{t1} {t2} 5\n{t2} {t3} 3\n{t1} {t3} 1\n")
        code, stdout, _ = run(
            capsys, "eval", "wordsim", str(data),
            "--checkpoint", str(tmp_path / "ckpt.json"),
            "--corpus", str(synth_dir / "l1.txt"),
        )
        assert code == 0
        value = float(stdout.strip())
        assert -1.0 <= value <= 1.0

    def test_wordsim_scores_type_table_cosines(self, tmp_path, capsys):
        ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc", "cc aa dd"])
        text = tmp_path / "text.txt"
        text.write_text("aa bb zz\ncc yy aa\ndd bb\n")  # zz, yy map to UNK
        data = tmp_path / "ws.txt"
        # qq and zz are outside the vocabulary: their rows are skipped, not
        # scored with the one UNK vector
        data.write_text("aa qq 1\nbb cc 3\naa dd 2\nqq zz 5\ncc dd 4\n")
        code, stdout, err = run(capsys, "eval", "wordsim", str(data),
                                "--checkpoint", str(ckpt), "--corpus", str(text))
        assert code == 0
        assert err == "warning: skipped 2 rows with 2 words not in the checkpoint's L1 vocabulary\n"
        table, vocab1 = type_table(ckpt, [line.split() for line in text.read_text().splitlines()])

        def vec(tok):
            return table[vocab1.id(tok)]

        pairs = (("bb", "cc"), ("aa", "dd"), ("cc", "dd"))
        cosines = [semeval.cosine(vec(a), vec(b)) for a, b in pairs]
        assert stdout == f"{semeval.spearman(cosines, [3.0, 2.0, 4.0]):.6f}\n"

    @pytest.mark.parametrize("token,oov", [("cc", False), ("zebra", True)])
    def test_wordsim_type_not_in_corpus_exits_2(self, tmp_path, capsys, token, oov):
        ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        text = tmp_path / "text.txt"
        text.write_text("aa bb\nbb aa\n")
        data = tmp_path / "ws.txt"
        data.write_text(f"aa bb 1\naa {token} 2\ncc aa 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "eval", "wordsim", str(data),
                               "--checkpoint", str(ckpt), "--corpus", str(text))
        # an unknown word's row is skipped, but a failed command prints no
        # warning; cc is known but never occurs
        assert code == 2
        assert err == f"error: {text}: 'cc' never occurs in the corpus\n"


class TestEmbed:
    def test_type_mode_counts_types(self, tmp_path, capsys):
        ckpt, l1 = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc", "cc aa"])
        out = tmp_path / "emb.txt"
        code, stdout, _ = run(
            capsys, "embed", "--checkpoint", str(ckpt), "--mode", "type", str(l1), str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert {line.split()[0] for line in lines} == {"aa", "bb", "cc"}
        assert all(len(line.split()) == 4 for line in lines)  # key + d values

    def test_sentence_mode_counts_sentences(self, tmp_path, capsys):
        ckpt, l1 = make_checkpoint(
            tmp_path, capsys, ["aa bb", "bb", "cc aa", "aa", "bb cc"]
        )
        out = tmp_path / "emb.txt"
        code, _, _ = run(
            capsys, "embed", "--checkpoint", str(ckpt), "--mode", "sentence", str(l1), str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert all(len(line.split()) == 4 for line in lines)

    def test_round_trip_cosine(self, tmp_path, capsys):
        ckpt, l1 = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        out = tmp_path / "emb.txt"
        assert run(
            capsys, "embed", "--checkpoint", str(ckpt), "--mode", "type", str(l1), str(out)
        )[0] == 0
        first = out.read_text().splitlines()[0].split()
        vec = np.array([float(v) for v in first[1:]])
        assert semeval.cosine(vec, vec) == 1.0

    def test_type_mode_first_occurrence_order(self, tmp_path, capsys):
        lines = ["bb aa bb", "cc aa", "dd bb cc"]
        ckpt, l1 = make_checkpoint(tmp_path, capsys, lines)
        out = tmp_path / "emb.txt"
        code, stdout, _ = run(
            capsys, "embed", "--checkpoint", str(ckpt), "--mode", "type", str(l1), str(out)
        )
        assert code == 0
        assert "wrote 4 type embeddings" in stdout
        table, vocab1 = type_table(ckpt, [line.split() for line in lines])
        expected = "".join(
            tok + " " + " ".join(repr(float(v)) for v in table[vocab1.id(tok)]) + "\n"
            for tok in ("bb", "aa", "cc", "dd")
        )
        assert out.read_text() == expected

    def test_type_mode_skips_types_outside_the_vocabulary(self, tmp_path, capsys):
        ckpt, _ = make_checkpoint(tmp_path, capsys, ["s01 s02", "s02 s03"])
        text = tmp_path / "text.txt"
        text.write_text("s01 zz s03\nyy s02\n")
        out = tmp_path / "emb.txt"
        code, stdout, err = run(
            capsys, "embed", "--checkpoint", str(ckpt), "--mode", "type", str(text), str(out)
        )
        assert code == 0
        assert err == "warning: skipped 2 types not in the checkpoint's L1 vocabulary\n"
        assert "wrote 3 type embeddings" in stdout
        assert [line.split()[0] for line in out.read_text().splitlines()] == ["s01", "s03", "s02"]

    def test_sentence_mode_empty_line_exits_2_with_position(self, tmp_path, capsys):
        ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        text = tmp_path / "text.txt"
        text.write_text("aa bb\n\ncc\n")
        out = tmp_path / "emb.txt"
        out.write_text("earlier output\n")
        code, _, err = run(
            capsys, "embed", "--checkpoint", str(ckpt), "--mode", "sentence", str(text), str(out)
        )
        assert code == 2
        assert err == f"error: {text}:2: empty sentence\n"
        assert out.read_text() == "earlier output\n"  # a failed run writes nothing

    @pytest.mark.parametrize("mode", ["type", "sentence"])
    def test_empty_file_gives_no_lines(self, tmp_path, capsys, mode):
        ckpt, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        text = tmp_path / "empty.txt"
        text.write_text("")
        out = tmp_path / "emb.txt"
        code, stdout, _ = run(capsys, "embed", "--checkpoint", str(ckpt), "--mode", mode,
                              str(text), str(out))
        assert code == 0 and f"wrote 0 {mode} embeddings" in stdout
        assert out.read_text() == ""


class TestReservedTokens:
    """A literal ``<null>`` or ``<unk>`` in evaluation text would read as the
    reserved id; every reader refuses it, naming the file and line."""

    # argv ({bad} is the file whose second line holds the token), its first line, its second
    CASES = {
        "align-l1": (["align", "--checkpoint", "{ckpt}", "{bad}", "{text}", "{out}"],
                     "aa bb", "s01 <null> s03"),
        "align-l2": (["align", "--checkpoint", "{ckpt}", "{text}", "{bad}", "{out}"],
                     "aa bb", "<unk> cc"),
        "align-ibm1": (["align", "--baseline", "ibm1", "--checkpoint", "{table}", "{bad}",
                        "{text}", "{out}"], "aa bb", "aa <null>"),
        "embed-type": (["embed", "--checkpoint", "{ckpt}", "--mode", "type", "{bad}", "{out}"],
                       "aa bb", "<null> bb"),
        "embed-sentence": (["embed", "--checkpoint", "{ckpt}", "--mode", "sentence", "{bad}",
                            "{out}"], "aa bb", "bb <unk>"),
        "wordsim-rows": (["eval", "wordsim", "{bad}"], "aa bb 1 4", "bb <null> 2 3"),
        "wordsim-corpus": (["eval", "wordsim", "{wordsim}", "--checkpoint", "{ckpt}",
                            "--corpus", "{bad}"], "aa bb", "cc <null>"),
        "lexsub-sentence": (["eval", "lexsub", "{bad}", "--checkpoint", "{ckpt}"],
                            "bb\t1\taa bb\tcc:1", "bb\t1\t<null> bb\tcc:1"),
        "lexsub-candidate": (["eval", "lexsub", "{bad}", "--per-instance", "{out}"],
                             "bb\t1\taa bb\tcc:1", "bb\t1\taa bb\tcc:1;<unk>:2"),
        "lexsub-target": (["eval", "lexsub", "{bad}", "--per-instance", "{out}"],
                          "bb\t1\taa bb\tcc:1", "<null>\t1\taa bb\tcc:1"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_naming_the_line(self, tmp_path, capsys, case):
        argv, first, second = self.CASES[case]
        ckpt, text = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        files = {"ckpt": ckpt, "text": text, "bad": tmp_path / "bad.txt",
                 "table": tmp_path / "table.txt", "wordsim": tmp_path / "ws.txt",
                 "out": tmp_path / "out.txt"}
        files["bad"].write_text(f"{first}\n{second}\n", encoding="utf-8")
        files["table"].write_text("<null> aa 0.5\naa aa 0.5\nbb bb 1\n", encoding="utf-8")
        files["wordsim"].write_text("aa bb 1\nbb cc 2\naa cc 3\n", encoding="utf-8")
        code, stdout, err = run(capsys, *(arg.format(**files) for arg in argv))
        token = "<null>" if "<null>" in second else "<unk>"
        assert (code, stdout) == (2, "")
        assert err == f"error: {files['bad']}:2: reserved token {token!r}\n"
        assert not files["out"].exists()


class TestNumericalFailure:
    """Finite weights whose posterior overflows float64 end every evaluation
    command with exit 3, one ``error:`` line and no output file."""

    @pytest.mark.parametrize("command", [
        ["align", "{ckpt}", "{text}", "{text}", "{out}"],
        ["embed", "--mode", "type", "{ckpt}", "{text}", "{out}"],
        ["embed", "--mode", "sentence", "{ckpt}", "{text}", "{out}"],
        ["eval", "lexsub", "{lexsub}", "{ckpt}", "--per-instance", "{out}"],
        ["eval", "wordsim", "{wordsim}", "{ckpt}", "--corpus", "{text}"],
    ], ids=["align", "embed-type", "embed-sentence", "lexsub", "wordsim"])
    def test_overflowing_posterior_exits_3(self, tmp_path, capsys, command):
        ckpt_path, text = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        ckpt = training.load_checkpoint(ckpt_path)
        ckpt.params["E"][corpus.NULL_ID] = 1.7e308
        ckpt.params["M1"][:] = 1.0  # so every location sums the huge row to inf
        training.save_checkpoint(ckpt, ckpt_path)
        files = {"ckpt": f"--checkpoint={ckpt_path}", "text": text, "out": tmp_path / "out.txt",
                 "lexsub": tmp_path / "ls.txt", "wordsim": tmp_path / "ws.txt"}
        files["lexsub"].write_text("bb\t1\taa bb\tcc:1;aa:0\n")
        files["wordsim"].write_text("aa bb 1\naa cc 2\nbb cc 3\n")
        code, _, err = run(capsys, *(arg.format(**files) for arg in command))
        assert code == 3
        assert err == "error: non-finite posterior: the model's weights overflow float64\n"
        assert not files["out"].exists()

    @pytest.mark.parametrize("command,what", [
        (["eval", "lexsub", "{lexsub}", "{ckpt}", "--metric", "kl"], "KL score"),
        (["eval", "lexsub", "{lexsub}", "{ckpt}", "--metric", "kl", "--reverse-kl"], "KL score"),
        (["eval", "lexsub", "{lexsub}", "{ckpt}", "--metric", "cosine"], "cosine"),
        (["eval", "wordsim", "{wordsim}", "{ckpt}", "--corpus", "{text}"], "cosine"),
    ], ids=["kl", "reverse-kl", "cosine", "wordsim"])
    def test_overflowing_score_exits_3(self, tmp_path, capsys, command, what):
        """Finite posteriors whose KL or cosine overflows float64: exit 3 with
        one line and no per-instance file, not a ranking read from inf or NaN."""
        ckpt_path, text = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        ckpt = training.load_checkpoint(ckpt_path)
        ckpt.params["M1"] *= 1e155  # every location is near 1e155; its square is not finite
        training.save_checkpoint(ckpt, ckpt_path)
        files = {"ckpt": f"--checkpoint={ckpt_path}", "text": text,
                 "lexsub": tmp_path / "ls.txt", "wordsim": tmp_path / "ws.txt"}
        files["lexsub"].write_text("bb\t1\taa bb\tcc:1;aa:0\n")
        files["wordsim"].write_text("aa bb 1\naa cc 2\nbb cc 3\n")
        out = tmp_path / "out.txt"
        per_instance = ["--per-instance", str(out)] if command[1] == "lexsub" else []
        code, _, err = run(capsys, *(arg.format(**files) for arg in command), *per_instance)
        assert code == 3
        assert err.startswith(f"error: non-finite {what}: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--metric", "kl"], ["--metric", "kl", "--reverse-kl"],
                                       ["--metric", "cosine"]], ids=["kl", "reverse-kl", "cosine"])
    def test_underflowed_scale_ends_kl_lexsub_only(self, tmp_path, capsys, flags):
        """A scale bias so negative that softplus gives exactly 0: the KL
        ranking exits 3, the cosine ranking reads locations and succeeds."""
        ckpt_path, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        ckpt = training.load_checkpoint(ckpt_path)
        ckpt.params["d2"][:] = -1000.0
        training.save_checkpoint(ckpt, ckpt_path)
        lexsub, out = tmp_path / "ls.txt", tmp_path / "out.txt"
        lexsub.write_text("bb\t1\taa bb\tcc:1;aa:0\n")
        code, _, err = run(capsys, "eval", "lexsub", str(lexsub), f"--checkpoint={ckpt_path}",
                           *flags, "--per-instance", str(out))
        if flags[1] == "cosine":
            assert (code, err) == (0, "")
            assert out.exists()
        else:
            assert code == 3
            assert err == ("error: posterior scale underflowed to 0: "
                           "the KL ranking needs positive scales\n")
            assert not out.exists()

    def test_failed_lexsub_prints_no_warning(self, tmp_path, capsys):
        """Unknown tokens, then an underflowed scale: exit 3 with the error line alone."""
        ckpt_path, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        ckpt = training.load_checkpoint(ckpt_path)
        ckpt.params["d2"][:] = -1000.0
        training.save_checkpoint(ckpt, ckpt_path)
        lexsub = tmp_path / "ls.txt"
        lexsub.write_text("bb\t1\taa bb zz\tcc:1;qq:0\n")
        code, _, err = run(capsys, "eval", "lexsub", str(lexsub), f"--checkpoint={ckpt_path}")
        assert code == 3
        assert err == ("error: posterior scale underflowed to 0: "
                       "the KL ranking needs positive scales\n")

    def test_failed_type_embed_prints_no_warning(self, tmp_path, capsys):
        """A type outside the vocabulary, then an output path that cannot be
        written: exit 2 with the error line alone."""
        ckpt_path, _ = make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        text = tmp_path / "text.txt"
        text.write_text("aa zz\nbb cc\n")
        code, _, err = run(capsys, "embed", f"--checkpoint={ckpt_path}", "--mode", "type",
                           str(text), str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDivergingTraining:
    """A learning rate so large that training diverges ends ``train`` with
    exit 3 and one ``error:`` line, for every model."""

    @pytest.fixture
    def data(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, _, _ = run(capsys, "synth", "--seed", "1", "--v1", "12", "--v2", "12",
                         "--pairs", "60", "--len", "3", "6", "--out", str(out))
        assert code == 0
        return out

    def train(self, data, tmp_path, capsys, lr, model):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={"train_l1": data / "l1.txt", "train_l2": data / "l2.txt",
                   "checkpoint": tmp_path / "ckpt.json", "metrics": tmp_path / "m.tsv"},
            model={"d": 4, "d_x": 6, **model},
            training={"epochs": 1, "batch": 20, "lr": lr},
        )
        return run(capsys, "train", "--config", str(cfg_path))

    @pytest.mark.parametrize("model", [{}, {"hierarchical": "true"}, {"encoder": "birnn"}],
                             ids=["bow", "hierarchical", "birnn"])
    def test_underflowed_scale_exits_3(self, data, tmp_path, capsys, model):
        """lr = 1e3 drives a softplus scale to exactly 0 within the first epoch."""
        code, _, err = self.train(data, tmp_path, capsys, "1e3", model)
        assert (code, err) == (3, "error: posterior scale underflowed to 0: training diverged\n")
        assert not (tmp_path / "ckpt.json").exists()

    @pytest.mark.parametrize("model", [{}, {"hierarchical": "true"}, {"encoder": "birnn"}],
                             ids=["bow", "hierarchical", "birnn"])
    def test_overflow_raises_no_warning(self, data, tmp_path, capsys, model):
        """lr = 1e300 overflows float64 in the forward pass; this suite turns
        a ``RuntimeWarning`` into an error, so none may escape."""
        code, _, err = self.train(data, tmp_path, capsys, "1e300", model)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("model", [{}, {"hierarchical": "true"}, {"encoder": "birnn"}],
                             ids=["bow", "hierarchical", "birnn"])
    def test_adam_overflow_exits_3(self, data, tmp_path, capsys, model):
        """lr = 1e308 overflows Adam's first step, lr times the first moment;
        the update refuses it, naming the parameter, before it is applied."""
        code, _, err = self.train(data, tmp_path, capsys, "1e308", model)
        assert code == 3
        assert err.startswith("error: Adam update of parameter ") and err.count("\n") == 1
        assert err.endswith("overflowed: training diverged\n")
        assert not (tmp_path / "ckpt.json").exists()
