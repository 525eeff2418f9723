"""Property tests of the checkpoint reader, end to end through ``alignvae align``.

A valid checkpoint of each format version is mutated (truncation, byte
flips inside and outside the parameter payloads, payloads of the wrong
length or not in the encoding, non-finite values, a JSON value of another
type at any place in the document) and aligned with. Whatever the file
holds, the command exits 0 with well-formed links, exits 2 with one
``error:`` line, or exits 3 with one ``error:`` line when a finite weight
is too large for the posterior or the head to stay finite, and never lets
an exception escape or a warning through.
"""

import base64
import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignvae import alignment, training
from alignvae.cli import main
from alignvae.corpus import load_parallel, synth_corpus, write_corpus
from alignvae.model import ModelConfig, build_params
from conftest import as_version, encode_entry, entry_values, set_value

# derandomized, with a fixed budget: the same examples on every run
FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# a JSON value of each type, to put in place of any value of the document
OTHER_TYPES = [None, True, False, 0, -3, 2.5, "", "x", [], [1], {}, {"k": 1}]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The corpus, a checkpoint document of each version and their bytes."""
    d = tmp_path_factory.mktemp("ckpt_props")
    synth = synth_corpus(seed=5, v1=6, v2=6, n_pairs=8, len_range=(2, 5), shuffle_l2=True)
    write_corpus(synth, d / "l1", d / "l2", d / "gold")
    _, vocab1, vocab2 = load_parallel(d / "l1", d / "l2")
    cfg = ModelConfig(encoder="bow", d=3, d_x=4)
    params = build_params(cfg, len(vocab1), len(vocab2), seed=3)
    ckpt = training.Checkpoint(cfg, list(vocab1.tokens), list(vocab2.tokens),
                               params.copy_values(), update_count=16, best_val_aer=0.25,
                               best_epoch=1)
    training.save_checkpoint(ckpt, d / "valid.json")
    v2 = (d / "valid.json").read_bytes()
    docs = {2: json.loads(v2), 1: as_version(json.loads(v2), 1)}
    blobs = {2: v2, 1: (json.dumps(docs[1]) + "\n").encode()}
    lines = [(len(a.split()), len(b.split())) for a, b in zip(
        (d / "l1").read_text().splitlines(), (d / "l2").read_text().splitlines())]
    return d, docs, blobs, lines


def payload_bytes(blob: bytes, version: int) -> list[int]:
    """Offsets of the bytes inside parameter payloads: the base64 text, or
    the list of numbers of a version-1 file."""
    pattern = rb'"b64": "([^"]*)"' if version == 2 else rb'"data": \[([^\]]*)\]'
    return [i for m in re.finditer(pattern, blob) for i in range(m.start(1), m.end(1))]


def align(files, blob: bytes):
    """Run ``alignvae align`` on ``blob`` as the checkpoint and check the
    outcome; returns the exit code and standard error."""
    d, _, _, lines = files
    path, out = d / "mutated.json", d / "out.txt"
    path.write_bytes(blob)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["align", "--checkpoint", str(path), str(d / "l1"), str(d / "l2"), str(out)])
    stderr = err.getvalue()
    assert code in (0, 2, 3), stderr
    assert "Traceback" not in stderr
    if code in (2, 3):
        assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr
        assert not out.exists()
    else:
        links = alignment.parse_gold(out)
        assert set(links) <= set(range(1, len(lines) + 1))
        for sid, gold in links.items():
            n_l1, n_l2 = lines[sid - 1]
            js = [j for j, _ in gold.possible]
            assert len(js) == len(set(js))  # one L1 position per L2 token at most
            assert all(1 <= j <= n_l2 and 1 <= i <= n_l1 for j, i in gold.possible)
    return code, stderr


def json_paths(node, path=()):
    """The path of every value in a parsed JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, (*path, key))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from json_paths(value, (*path, k))


VERSIONS = pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])


@VERSIONS
def test_valid_files_align(files, version):
    assert align(files, files[2][version]) == (0, "")


@VERSIONS
@FUZZ
@given(data=st.data())
def test_truncation_at_any_byte(files, version, data):
    blob = files[2][version]
    n = data.draw(st.integers(0, len(blob) - 1))
    code, stderr = align(files, blob[:n])
    # only dropping the final newline leaves a whole document
    assert code == (0 if n == len(blob) - 1 else 2), stderr


@VERSIONS
@pytest.mark.parametrize("where", ["payload", "elsewhere"])
@FUZZ
@given(data=st.data())
def test_byte_flip(files, version, where, data):
    blob = files[2][version]
    inside = payload_bytes(blob, version)
    offsets = inside if where == "payload" else sorted(set(range(len(blob))) - set(inside))
    at = data.draw(st.sampled_from(offsets))
    mask = data.draw(st.integers(1, 255))
    mutated = bytearray(blob)
    mutated[at] ^= mask
    align(files, bytes(mutated))


NOT_BASE64 = ["!", " ", "\n", "-", "_", ".", "é", "=", "\x00"]


@VERSIONS
@FUZZ
@given(data=st.data())
def test_payload_of_wrong_length_or_encoding(files, version, data):
    doc = json.loads(json.dumps(files[1][version]))
    name = data.draw(st.sampled_from(sorted(doc["params"])))
    entry = doc["params"][name]
    kind = data.draw(st.sampled_from(["shorter", "longer", "foreign"]))
    if kind == "foreign" and version == 2:
        text = entry["b64"]
        # the ends often: a surplus "=" after the text decodes to the same bytes
        at = data.draw(st.sampled_from([0, len(text)]) | st.integers(0, len(text)))
        entry["b64"] = text[:at] + data.draw(st.sampled_from(NOT_BASE64)) + text[at:]
    elif kind == "foreign":
        at = data.draw(st.integers(0, len(entry["data"]) - 1))
        entry["data"][at] = data.draw(st.sampled_from(["1.5", True, None, [1.0], {}]))
    elif version == 2:
        raw = entry_values(entry).astype("<f8").tobytes()
        n = data.draw(st.integers(1, 24))  # bytes: whole values or not
        raw = raw[:-n] if kind == "shorter" else raw + bytes(n)
        entry["b64"] = base64.b64encode(raw).decode("ascii")
    else:
        values = entry_values(entry)
        n = data.draw(st.integers(1, 3))
        values = values[:-n] if kind == "shorter" else np.concatenate([values, np.ones(n)])
        doc["params"][name] = encode_entry(values, entry["shape"], 1)
    code, stderr = align(files, json.dumps(doc).encode())
    assert code == 2 and f"malformed parameter {name!r}" in stderr, stderr


@VERSIONS
@FUZZ
@given(data=st.data())
def test_non_finite_bit_patterns(files, version, data):
    doc = json.loads(json.dumps(files[1][version]))
    name = data.draw(st.sampled_from(sorted(doc["params"])))
    size = len(entry_values(doc["params"][name]))
    at = data.draw(st.integers(0, size - 1))
    # all-ones exponent: infinity when the mantissa is 0, NaN otherwise
    bits = (data.draw(st.integers(0, 1)) << 63) | (0x7FF << 52) | data.draw(
        st.integers(0, 2**52 - 1))
    set_value(doc, name, at, np.array([bits], dtype=np.uint64).view(np.float64)[0])
    code, stderr = align(files, json.dumps(doc).encode())
    assert code == 2 and f"parameter {name!r} holds a non-finite value" in stderr, stderr


# fields that may also hold null
NULLABLE = {("best_val_aer",), ("best_epoch",)}


def swap_type(files, doc, path, value):
    """Align with the value at ``path`` of ``doc`` replaced by ``value``; a
    value of another JSON type exits 2 wherever the reader checks types."""
    if not path:
        old, doc = doc, value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old, parent[path[-1]] = parent[path[-1]], value
    code, _ = align(files, json.dumps(doc).encode())
    # a version-1 value may be any JSON number; everywhere else the type is exact
    number = {int, float} >= {type(old), type(value)} and path[2:3] == ("data",)
    null_ok = value is None and path in NULLABLE
    if type(old) is not type(value) and not number and not null_ok:
        assert code == 2, (path, value)


@VERSIONS
def test_json_type_swap_on_every_field(files, version):
    """The root, every field, config field, parameter entry and entry field,
    once per JSON type."""
    doc = files[1][version]
    fields = [p for p in json_paths(doc)
              if len(p) < 2 or p[0] in ("config", "params") and len(p) <= 3]
    for path in fields:
        for value in [None, True, 0, 2.5, "x", [], {}]:
            swap_type(files, json.loads(json.dumps(doc)), path, value)


@VERSIONS
@FUZZ
@given(data=st.data())
def test_json_type_swap_anywhere(files, version, data):
    doc = json.loads(json.dumps(files[1][version]))
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    swap_type(files, doc, path, data.draw(st.sampled_from(OTHER_TYPES)))


@VERSIONS
@pytest.mark.parametrize("key,value", [
    ("update_count", -1), ("update_count", True), ("update_count", 3.0),
    ("best_val_aer", 1), ("best_val_aer", "0.5"), ("best_epoch", -2),
    ("best_epoch", False), ("best_epoch", 1.0),
])
def test_bad_training_fields_exit_2(files, version, key, value):
    doc = json.loads(json.dumps(files[1][version]))
    doc[key] = value
    code, stderr = align(files, json.dumps(doc).encode())
    assert code == 2 and f"checkpoint field {key!r}" in stderr, stderr


@VERSIONS
@pytest.mark.parametrize("key,value", [("best_val_aer", None), ("best_epoch", None),
                                       ("update_count", 0), ("best_epoch", 0)])
def test_valid_training_fields_align(files, version, key, value):
    doc = json.loads(json.dumps(files[1][version]))
    doc[key] = value
    assert align(files, json.dumps(doc).encode()) == (0, "")


@VERSIONS
@pytest.mark.parametrize("name,values,what", [
    ("E", [1.7e308] * 4, "posterior"),  # the NULL row: every posterior overflows
    ("b2", [1.7e308, -1.7e308], "log-probability"),  # logits span more than float64
], ids=["posterior", "head"])
def test_finite_weights_too_large_exit_3(files, version, name, values, what):
    """Finite weights that overflow the posterior or the exact head end
    with one line and no output, not with links decoded from NaN."""
    doc = json.loads(json.dumps(files[1][version]))
    for at, value in enumerate(values):
        set_value(doc, name, at, value)
    code, stderr = align(files, json.dumps(doc).encode())
    assert code == 3 and stderr.startswith(f"error: non-finite {what}"), stderr
