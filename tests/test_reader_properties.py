"""Property harness for the file readers behind the command line.

Each reader's valid input is mutated (truncated, a bit flipped, its lines
shuffled, or one token swapped for ``nan``, ``inf``, ``1e309``, an int
past 64 bits or the empty string) and fed to ``cli.main``. Every run must
end with exit 0, 2 or 3 and no traceback; exit 2 or 3 prints exactly one
stderr line; exit 0 writes only finite numbers. The mutations come from
fixed seeds, so every run checks the same inputs.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest

from alignvae import cli, training

EXAMPLES = 100  # per reader: about 4 s for all readers on a 2-core host
SWAPS = [b"nan", b"inf", b"1e309", b"9" * 25, b""]


def mutate(data: bytes, rng) -> bytes:
    kind = int(rng.integers(4))
    if kind == 0:  # truncation
        return data[:int(rng.integers(len(data) + 1))]
    if kind == 1 and data:  # one bit flipped
        pos = int(rng.integers(len(data)))
        return data[:pos] + bytes([data[pos] ^ (1 << int(rng.integers(8)))]) + data[pos + 1:]
    if kind == 2:  # lines shuffled
        lines = data.split(b"\n")
        return b"\n".join(lines[k] for k in rng.permutation(len(lines)))
    tokens = list(re.finditer(rb"\S+", data))  # one token swapped
    if not tokens:
        return data
    tok = tokens[int(rng.integers(len(tokens)))]
    return data[:tok.start()] + SWAPS[int(rng.integers(len(SWAPS)))] + data[tok.end():]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def finite(values):
    values = list(values)
    assert all(math.isfinite(v) for v in values), values


def columns(path, cols):
    """The numbers in columns ``cols`` of each line of ``path``."""
    return [float(line.split()[c]) for line in path.read_text().splitlines() for c in cols]


def check_links(out):
    for line in out.read_text().splitlines()[1:]:
        sid, j, i, flag = line.split()
        assert min(int(sid), int(j), int(i)) >= 0 and flag in ("S", "P")


def written(out, config):
    """The checkpoint and metrics paths that the mutated ``config`` names."""
    paths = cli._parse_config(out / config)["paths"]
    return (out / paths.get("checkpoint", "checkpoint.json"),
            out / paths.get("metrics", "metrics.tsv"))


def check_model_training(out):
    ckpt, metrics = written(out, "model.ini")
    training.load_checkpoint(ckpt)  # refuses a non-finite parameter
    finite(columns(metrics, (1, 2)))  # ELBO and alpha; val AER is nan without gold


def check_ibm1_training(out):
    table, metrics = written(out, "ibm1.ini")
    finite(columns(table, (2,)))
    finite(columns(metrics, (1,)))


def check_score(stdout):
    finite([float(stdout.split()[0])])


# reader: (input file mutated, command line (its {m} is the mutated file, {d} the
# directory of the valid inputs), check of a success (given the output directory))
READERS = {
    "gold": ("gold.txt", "eval aer {d}/pred.txt {m}", None),
    "pred": ("pred.txt", "eval aer {m} {d}/gold.txt", None),
    "ibm1-table": ("table.txt", "align --baseline ibm1 --checkpoint {m} {d}/l1.txt {d}/l2.txt "
                   "out.txt", lambda out: check_links(out / "out.txt")),
    "align-l1": ("l1.txt", "align --checkpoint {d}/ckpt.json {m} {d}/l2.txt out.txt",
                 lambda out: check_links(out / "out.txt")),
    "align-l2": ("l2.txt", "align --checkpoint {d}/ckpt.json {d}/l1.txt {m} out.txt",
                 lambda out: check_links(out / "out.txt")),
    "embed-sentence": ("l1.txt", "embed --checkpoint {d}/ckpt.json --mode sentence {m} out.txt",
                       lambda out: finite(columns(out / "out.txt", (1, 2)))),  # d = 2
    "lexsub": ("lexsub.tsv", "eval lexsub {m} --checkpoint {d}/ckpt.json --per-instance out.txt",
               lambda out: finite(columns(out / "out.txt", (1,)))),
    "wordsim": ("wordsim.txt", "eval wordsim {m} --checkpoint {d}/ckpt.json --corpus {d}/l1.txt",
                None),
    "wordsim-4-column": ("wordsim4.txt", "eval wordsim {m}", None),
    "config": ("model.ini", "train --config {m}", check_model_training),
    "ibm1-config": ("ibm1.ini", "train --config {m} --baseline ibm1", check_ibm1_training),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A small corpus with gold links, a joint-model checkpoint (d = 2) and
    its predicted links, an IBM1 table, and lexsub, wordsim and config
    files; the configs write ckpt.json and metrics.tsv to the working
    directory."""
    d = tmp_path_factory.mktemp("valid")
    assert run("synth", "--seed", "2", "--v1", "8", "--v2", "8", "--pairs", "12",
               "--len", "2", "4", "--out", d)[0] == 0
    paths = ["[paths]", f"train_l1 = {d}/l1.txt", f"train_l2 = {d}/l2.txt",
             f"val_l1 = {d}/l1.txt", f"val_l2 = {d}/l2.txt", f"gold = {d}/gold.txt",
             "checkpoint = ckpt.json", "metrics = metrics.tsv"]
    (d / "model.ini").write_text("\n".join(paths + [
        "[model]", "encoder = bow", "d = 2", "d_x = 3",
        "[training]", "epochs = 1", "batch = 6", "n_neg = 3", "seed = 4"]) + "\n")
    # IBM1 refuses the validation paths, which it would not read
    ibm1_paths = [line for line in paths if not line.startswith(("val_", "gold"))]
    (d / "ibm1.ini").write_text("\n".join(ibm1_paths + [
        "[training]", "em_iters = 2", "max_vocab = 6"]) + "\n")
    for config, table, flags in (("ibm1.ini", "table.txt", ["--baseline", "ibm1"]),
                                 ("model.ini", "ckpt.json", [])):
        config = (d / config).read_text().replace("= ckpt.json", f"= {d}/{table}")
        (d / "run.ini").write_text(config.replace("= metrics.tsv", f"= {d}/metrics.tsv"))
        assert run("train", "--config", d / "run.ini", *flags)[0] == 0
    assert run("align", "--checkpoint", d / "ckpt.json", d / "l1.txt", d / "l2.txt",
               d / "pred.txt")[0] == 0
    (d / "lexsub.tsv").write_text("s01\t1\ts03 s01 s05\ts02:1;s04:0.5;s06:0\n"
                                  "s07\t0\ts07 s02\ts00:2;s05:1\n")
    (d / "wordsim.txt").write_text("s01 s02 1\ns03 s04 2.5\ns05 s06 2.5\ns00 s07 4\n")
    (d / "wordsim4.txt").write_text("s01 s02 1 0.2\ns03 s04 2.5 0.7\ns05 s06 2.5 0.1\n")
    return d


@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutated_input_ends_cleanly(valid, reader, tmp_path, monkeypatch):
    source, command, check = READERS[reader]
    data = (valid / source).read_bytes()
    for k in range(EXAMPLES):
        rng = np.random.default_rng([sorted(READERS).index(reader), k])
        mutated = mutate(data, rng)
        out = tmp_path / str(k)
        out.mkdir()
        monkeypatch.chdir(out)  # relative output paths, mutated or not, land here
        (out / source).write_bytes(mutated)
        argv = command.format(d=valid, m=out / source).split()
        case = f"{reader} example {k}: {mutated!r}"
        try:
            code, stdout, stderr = run(*argv)
        except Exception as e:  # noqa: BLE001 - any escape is a traceback
            raise AssertionError(f"{case}: raised {e!r}") from e
        assert code in (0, 2, 3), case
        if code:
            assert stderr.count("\n") == 1 and stderr.startswith("error: "), (case, stderr)
        else:
            if argv[0] == "eval":
                check_score(stdout)
            if check is not None:
                check(out)
