"""Command-line surface: synthesize data, train, align, evaluate, embed.

Exit codes: 0 success, 2 usage/config/data error, 3 numerical failure.
A failed command prints one ``error:`` line to stderr; ``warning:`` lines
print only when the command succeeds.
Training is driven by an INI-style config file:

    [paths]
    train_l1 = data/l1.txt
    train_l2 = data/l2.txt
    val_l1 = data/l1.txt        ; optional: val_l1, val_l2 and gold
    val_l2 = data/l2.txt        ; are given together or not at all
    gold = data/gold.txt
    checkpoint = checkpoint.json
    metrics = metrics.tsv

    [model]
    encoder = bow               ; bow | birnn
    d = 100
    d_x = 128
    hierarchical = false
    d_s = 16

    [training]
    epochs = 30
    batch = 100
    lr = 1e-3
    n_neg = 1000
    seed = 1
    css = true
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from typing import get_type_hints

import numpy as np

from . import alignment, baselines, corpus, semeval, training
from .corpus import NULL_ID, NULL_TOKEN
from .errors import AlignvaeError, DataError, NumericalError
from .model import ModelConfig

_CONFIG_SCHEMA = {
    "paths": {
        "train_l1": str, "train_l2": str, "val_l1": str, "val_l2": str,
        "gold": str, "checkpoint": str, "metrics": str,
    },
    "model": get_type_hints(ModelConfig),
    # TrainConfig's fields, its batch_size read as batch, and two keys of the run
    "training": {("batch" if key == "batch_size" else key): kind
                 for key, kind in get_type_hints(training.TrainConfig).items()}
                | {"em_iters": int, "max_vocab": int},
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_config(path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(corpus.read_text(path), source=str(path))
        items = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as e:  # items() interpolates, which can fail too
        raise AlignvaeError(f"malformed config file {path}: {' '.join(str(e).split())}") from None
    values: dict[str, dict] = {section: {} for section in _CONFIG_SCHEMA}
    for section, pairs in items.items():
        if section not in _CONFIG_SCHEMA:
            raise AlignvaeError(f"unknown config section [{section}]")
        for key, raw in pairs:
            kind = _CONFIG_SCHEMA[section].get(key)
            if kind is None:
                raise AlignvaeError(f"unknown config key {key!r} in [{section}]")
            if kind is str and (not raw or "\0" in raw):  # open() refuses both as paths
                raise AlignvaeError(f"bad value for {key!r}: {raw!r}")
            if kind is bool:
                if raw.lower() not in _BOOL:
                    raise AlignvaeError(f"bad boolean for {key!r}: {raw!r}")
                values[section][key] = _BOOL[raw.lower()]
            else:
                try:
                    values[section][key] = kind(raw)
                    if kind is int and not -2**63 <= values[section][key] < 2**63:
                        raise ValueError  # sizes, counts and seeds all reach numpy's int64
                except ValueError:
                    raise AlignvaeError(f"bad value for {key!r}: {raw!r}") from None
    return values


def _load_model(path):
    """A checkpoint, its parameter store and its two vocabularies."""
    ckpt = training.load_checkpoint(path)
    return (ckpt, ckpt.build_store(), *ckpt.vocabularies())


def cmd_synth(args) -> int:
    synth = corpus.synth_corpus(
        seed=args.seed, v1=args.v1, v2=args.v2, n_pairs=args.pairs,
        len_range=(args.len[0], args.len[1]), shuffle_l2=args.shuffle,
    )
    out = args.out
    os.makedirs(out, exist_ok=True)
    corpus.write_corpus(
        synth,
        os.path.join(out, "l1.txt"),
        os.path.join(out, "l2.txt"),
        os.path.join(out, "gold.txt"),
    )
    n_links = sum(len(v) for v in synth.gold.values())
    print(
        f"wrote {len(synth.l1_lines)} sentence pairs, {n_links} gold links, "
        f"{len(synth.mapping)} dictionary entries to {out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _parse_config(args.config)
    paths = cfg["paths"]
    for key in ("train_l1", "train_l2"):
        if key not in paths:
            raise AlignvaeError(f"config missing required key {key!r} in [paths]")
    missing = [key for key in ("val_l1", "val_l2", "gold") if key not in paths]
    if len(missing) in (1, 2):
        raise AlignvaeError(
            f"validation needs val_l1, val_l2 and gold together; [paths] lacks {', '.join(missing)}"
        )
    model_cfg = ModelConfig(**cfg["model"])
    section = cfg["training"]
    em_iters = {"iterations": section.pop("em_iters")} if "em_iters" in section else {}
    max_vocab = section.pop("max_vocab", None)
    # every other [training] key is a TrainConfig field; batch is its batch_size
    if "batch" in section:
        section["batch_size"] = section.pop("batch")
    train_cfg = training.TrainConfig(**section)
    pairs, vocab1, vocab2 = corpus.load_parallel(
        paths["train_l1"], paths["train_l2"], max_vocab=max_vocab
    )

    val_pairs = val_gold = None
    if not missing:
        val_pairs, _, _ = corpus.load_parallel(
            paths["val_l1"], paths["val_l2"], max_len=None, vocabs=(vocab1, vocab2)
        )
        val_gold = alignment.parse_gold(paths["gold"])
        if not val_gold:  # parse_gold keeps only sentences with links
            args.notes.append("warning: empty validation gold; "
                              "model selection falls back to final epoch")

    ckpt_path = paths.get("checkpoint", "checkpoint.json")
    metrics_path = paths.get("metrics", "metrics.tsv")

    if args.baseline == "ibm1":
        table, trace = baselines.ibm1_train(pairs, len(vocab1), len(vocab2), **em_iters)
        baselines.save_ibm1_table(table, vocab1, vocab2, ckpt_path)
        corpus.write_text(metrics_path, [f"{it}\t{ll!r}\n" for it, ll in enumerate(trace)])
        print(f"ibm1 table written to {ckpt_path}")
        return 0

    ckpt = training.train(  # epoch lines are progress, on stdout
        pairs, vocab1, vocab2, model_cfg, train_cfg,
        val_pairs=val_pairs, val_gold=val_gold, log_path=metrics_path, log_fn=print,
    )
    training.save_checkpoint(ckpt, ckpt_path)
    print(f"checkpoint written to {ckpt_path} (best epoch {ckpt.best_epoch})")
    return 0


def cmd_align(args) -> int:
    l1, l2 = corpus.read_parallel(args.l1, args.l2)
    links_by_sid = {}
    if args.baseline == "ibm1":
        table, rows, cols = baselines.load_ibm1_table(args.checkpoint)
        for sid, (a, b) in enumerate(zip(l1, l2), start=1):
            pair = corpus.SentencePair(
                x=tuple(rows.get(tok, 0) for tok in (NULL_TOKEN, *a)),
                y=tuple(cols.get(tok, 0) for tok in b),
            )
            links_by_sid[sid] = baselines.ibm1_align(pair, table)
    else:
        ckpt, params, vocab1, vocab2 = _load_model(args.checkpoint)
        pairs = [corpus.SentencePair(x=(NULL_ID, *vocab1.encode(a)), y=vocab2.encode(b))
                 for a, b in zip(l1, l2)]
        links = alignment.align_pairs(pairs, params, ckpt.model_cfg)
        links_by_sid = dict(enumerate(links, start=1))
    corpus.write_links(links_by_sid, args.out)
    print(f"wrote alignments for {len(links_by_sid)} sentences to {args.out}")
    return 0


def _eval_aer(args) -> int:
    pred = alignment.parse_gold(args.pred)
    gold = alignment.parse_gold(args.gold)
    pred_links = {sid: set(g.possible) for sid, g in pred.items()}
    score, counts = alignment.corpus_aer(pred_links, gold)
    print(f"{score:.6f}")
    print(f"|A|={counts['A']} |S|={counts['S']} |P|={counts['P']}")
    return 0


def _eval_lexsub(args) -> int:
    if not args.checkpoint and (args.reverse_kl or args.metric):
        raise AlignvaeError("--metric and --reverse-kl need --checkpoint")
    instances = semeval.parse_lexsub(args.data)
    if args.checkpoint:
        ckpt, params, vocab1, _ = _load_model(args.checkpoint)
        unknown = sum(tok not in vocab1 for inst in instances
                      for tok in (*inst.sentence, *(cand for cand, _ in inst.candidates)))
        if unknown:
            args.notes.append(f"warning: read {unknown} tokens not in the checkpoint's L1 "
                              "vocabulary as UNK")
        score, per_instance = semeval.mean_gap(
            instances, vocab1, params, ckpt.model_cfg,
            metric=args.metric or "kl", reverse_kl=args.reverse_kl,
        )
    else:
        # no model: score the candidates in file order
        per_instance = [
            semeval.gap([w for _, w in inst.candidates]) for inst in instances
        ]
        score = float(np.mean(per_instance))
    if args.per_instance:
        lines = [f"{k}\t{value!r}\n" for k, value in enumerate(per_instance)]
        corpus.write_text(args.per_instance, lines + [f"mean\t{score!r}\n"])
    print(f"{score:.6f}")
    return 0


def _eval_wordsim(args) -> int:
    if args.corpus and not args.checkpoint:
        raise AlignvaeError("--corpus needs --checkpoint")
    rows = semeval.parse_wordsim(args.data)
    if args.checkpoint:
        ckpt, params, vocab1, _ = _load_model(args.checkpoint)
        if not args.corpus:
            raise AlignvaeError("wordsim with a checkpoint needs --corpus (L1 text)")
        unknown = {tok for row in rows for tok in row[:2] if tok not in vocab1}
        if unknown:
            kept = [row for row in rows if not unknown.intersection(row[:2])]
            args.notes.append(f"warning: skipped {len(rows) - len(kept)} rows with "
                              f"{len(unknown)} words not in the checkpoint's L1 vocabulary")
            rows = kept
        sentences = corpus.read_sentences(args.corpus)
        ids = [(NULL_ID, *vocab1.encode(toks)) for toks in sentences]
        table = semeval.type_embeddings_for_corpus(ids, params, ckpt.model_cfg)

        def embedding(token):
            vec = table.get(vocab1.id(token))
            if vec is None:
                raise DataError(f"{args.corpus}: {token!r} never occurs in the corpus")
            return vec

        sys_scores = [semeval.cosine(embedding(t1), embedding(t2)) for t1, t2, _, _ in rows]
    else:
        if any(row[3] is None for row in rows):
            raise AlignvaeError(
                "wordsim without a checkpoint needs a 4th system-score column"
            )
        sys_scores = [row[3] for row in rows]
    print(f"{semeval.spearman(sys_scores, [row[2] for row in rows]):.6f}")
    return 0


def cmd_embed(args) -> int:
    ckpt, params, vocab1, _ = _load_model(args.checkpoint)
    sentences = corpus.read_sentences(args.corpus)
    ids = [(NULL_ID, *vocab1.encode(toks)) for toks in sentences]
    if args.mode == "type":
        table = semeval.type_embeddings_for_corpus(ids, params, ckpt.model_cfg)
        seen = dict.fromkeys(tok for toks in sentences for tok in toks)
        rows = [(tok, table[vocab1.id(tok)]) for tok in seen if tok in vocab1]
        if len(rows) < len(seen):
            args.notes.append(f"warning: skipped {len(seen) - len(rows)} types not in the "
                              "checkpoint's L1 vocabulary")
    else:
        for sid, row in enumerate(ids, start=1):
            if row == (NULL_ID,):
                raise DataError(f"{args.corpus}:{sid}: empty sentence")
        vecs = semeval.sentence_embeddings(ids, params, ckpt.model_cfg)
        rows = [(str(sid), vec) for sid, vec in enumerate(vecs, start=1)]
    lines = (key + " " + " ".join(repr(float(v)) for v in vec) + "\n" for key, vec in rows)
    corpus.write_text(args.out, lines)
    print(f"wrote {len(rows)} {args.mode} embeddings to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignvae",
        description="Bilingual word embeddings and alignments from parallel text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dictionary corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--v1", type=int, default=30, help="L1 vocabulary size")
    p.add_argument("--v2", type=int, default=30, help="L2 vocabulary size")
    p.add_argument("--pairs", type=int, default=3000)
    p.add_argument("--len", type=int, nargs=2, default=(3, 8), metavar=("LO", "HI"))
    p.add_argument("--shuffle", action="store_true", help="shuffle the L2 side")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--baseline", choices=["ibm1"], default=None,
                   help="train the IBM1 baseline instead of the joint model")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("align", help="predict alignments for parallel text")
    p.add_argument("--checkpoint", required=True,
                   help="model checkpoint, or table file with --baseline ibm1")
    p.add_argument("--baseline", choices=["ibm1"], default=None)
    p.add_argument("l1")
    p.add_argument("l2")
    p.add_argument("out")
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("eval", help="aer | lexsub | wordsim")
    kinds = p.add_subparsers(dest="kind", required=True)
    q = kinds.add_parser("aer")
    q.add_argument("pred")
    q.add_argument("gold")
    q.set_defaults(fn=_eval_aer)
    q = kinds.add_parser("lexsub")
    q.add_argument("data")
    q.add_argument("--checkpoint", default=None)
    q.add_argument("--metric", choices=["kl", "cosine"], default=None,
                   help="candidate score (default kl); needs --checkpoint")
    q.add_argument("--reverse-kl", action="store_true",
                   help="rank by divergence from target to candidate")
    q.add_argument("--per-instance", default=None, help="write per-instance GAP here")
    q.set_defaults(fn=_eval_lexsub)
    q = kinds.add_parser("wordsim")
    q.add_argument("data")
    q.add_argument("--checkpoint", default=None)
    q.add_argument("--corpus", default=None, help="L1 text for type embeddings")
    q.set_defaults(fn=_eval_wordsim)

    p = sub.add_parser("embed", help="extract type or sentence embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=["type", "sentence"], required=True)
    p.add_argument("corpus", help="L1 text file")
    p.add_argument("out")
    p.set_defaults(fn=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.notes = []  # warning lines, printed only once the command has succeeded
    try:
        code = args.fn(args)
    except (AlignvaeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, NumericalError) else 2
    except MemoryError as e:  # a dimension or vocabulary too large to allocate
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return 2
    for note in args.notes:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
