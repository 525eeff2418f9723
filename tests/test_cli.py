import json

import numpy as np
import pytest

from alignvae import alignment, corpus, semeval, training
from alignvae.cli import main
from alignvae.corpus import load_parallel, synth_corpus, write_corpus
from alignvae.model import ModelConfig


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

    def test_hierarchical_flag_routes(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        write_config(
            cfg_path,
            paths={
                "train_l1": synth_dir / "l1.txt",
                "train_l2": synth_dir / "l2.txt",
                "checkpoint": tmp_path / "ckpt.json",
                "metrics": tmp_path / "metrics.tsv",
            },
            model={"d": 3, "d_x": 4, "d_s": 2},
            training={"epochs": 1, "batch": 30, "seed": 1},
        )
        code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--hierarchical", "true")
        assert code == 0
        ckpt = training.load_checkpoint(tmp_path / "ckpt.json")
        assert ckpt.model_cfg.hierarchical is True
        assert "G1" in ckpt.params

    def test_unknown_config_key_exits_2(self, synth_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            f"[paths]\ntrain_l1 = {synth_dir/'l1.txt'}\ntrain_l2 = {synth_dir/'l2.txt'}\n"
            "[training]\nlearning_rate = 0.1\n"
        )
        code, _, stderr = run(capsys, "train", "--config", str(cfg_path))
        assert code == 2
        assert "learning_rate" in stderr

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

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        (tmp_path / "l1").write_text("a\n")
        (tmp_path / "l2").write_text("x\n")
        code, _, _ = run(
            capsys, "align", "--checkpoint", str(tmp_path / "nope.json"),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(tmp_path / "out"),
        )
        assert code == 2


    @pytest.mark.parametrize("edit", ["missing_param", "unknown_config_key"])
    def test_broken_checkpoint_exits_2(self, tmp_path, capsys, edit):
        synth = synth_corpus(seed=2, v1=6, v2=6, n_pairs=10, len_range=(2, 5), shuffle_l2=False)
        write_corpus(synth, tmp_path / "l1", tmp_path / "l2", tmp_path / "gold")
        _, vocab1, vocab2 = load_parallel(tmp_path / "l1", tmp_path / "l2")
        ckpt_path = perfect_checkpoint(tmp_path, synth, vocab1, vocab2)
        doc = json.loads(ckpt_path.read_text())
        if edit == "missing_param":
            del doc["params"]["b2"]
        else:
            doc["config"]["layers"] = 2
        ckpt_path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "align", "--checkpoint", str(ckpt_path),
            str(tmp_path / "l1"), str(tmp_path / "l2"), str(tmp_path / "out"),
        )
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestEval:
    def test_aer_identical_pred_gold(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("1 1 1 S\n1 2 2 S\n")
        code, stdout, _ = run(capsys, "eval", "aer", str(gold), str(gold))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "0.000000"
        assert "|A|=2" in lines[1] and "|S|=2" in lines[1] and "|P|=2" in lines[1]

    def test_lexsub_hand_fixture(self, tmp_path, capsys):
        data = tmp_path / "lst.tsv"
        data.write_text("w\t0\tw x\ta:2;b:0;c:1\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "eval", "lexsub", str(data))
        assert code == 0
        assert stdout.strip() == "0.857143"

    def test_lexsub_per_instance_output(self, tmp_path, capsys):
        data = tmp_path / "lst.tsv"
        data.write_text("w\t0\tw x\ta:2;b:0;c:1\n", encoding="utf-8")
        per = tmp_path / "per.tsv"
        code, _, _ = run(capsys, "eval", "lexsub", str(data), "--per-instance", str(per))
        assert code == 0
        lines = per.read_text().splitlines()
        assert lines[0].startswith("0\t")
        assert lines[-1].startswith("mean\t")

    @pytest.mark.parametrize("kind,text", [
        ("lexsub", "w\t0\tw x\ta:2;b:lots\n"),
        ("lexsub", "w\tfirst\tw x\ta:2;b:0\n"),
        ("wordsim", "a b 1\nc d high\n"),
        ("wordsim", "a b 1 0.5\nc d 2 n/a\n"),
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


class TestEmbed:
    def make_checkpoint(self, tmp_path, capsys, corpus_lines):
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

    def test_type_mode_counts_types(self, tmp_path, capsys):
        ckpt, l1 = self.make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc", "cc aa"])
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
        ckpt, l1 = self.make_checkpoint(
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
        ckpt, l1 = self.make_checkpoint(tmp_path, capsys, ["aa bb", "bb cc"])
        out = tmp_path / "emb.txt"
        assert run(
            capsys, "embed", "--checkpoint", str(ckpt), "--mode", "type", str(l1), str(out)
        )[0] == 0
        first = out.read_text().splitlines()[0].split()
        vec = np.array([float(v) for v in first[1:]])
        assert semeval.cosine(vec, vec) == 1.0
