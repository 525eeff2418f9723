import base64

import numpy as np
import pytest

from alignvae.autodiff import RowGrad
from alignvae.corpus import SentencePair
from alignvae.model import ModelConfig, build_params


def fd_grad(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        f_plus = f()
        flat[k] = orig - h
        f_minus = f()
        flat[k] = orig
        gflat[k] = (f_plus - f_minus) / (2.0 * h)
    return grad


def dense_of(grad, shape) -> np.ndarray:
    """A gradient as its dense table: a ``RowGrad``, whose ids must be sorted
    and distinct, has its rows set at its ids and zeros elsewhere."""
    if type(grad) is not RowGrad:
        return grad
    assert np.all(np.diff(grad.ids) > 0), "RowGrad ids are not sorted and distinct"
    table = np.zeros(shape)
    table[grad.ids] = grad.values
    return table


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def toy_setup():
    """2-pair toy corpus with a small BoW model (vocab 10/10)."""
    cfg = ModelConfig(encoder="bow", d=4, d_x=8)
    params = build_params(cfg, 10, 10, seed=7)
    pairs = [
        SentencePair((0, 2, 3, 4), (2, 5, 6)),
        SentencePair((0, 5, 6), (7, 8, 9, 2)),
    ]
    rng = np.random.default_rng(11)
    noise = [rng.standard_normal((p.m, cfg.d)) for p in pairs]
    return cfg, params, pairs, noise


def encode_entry(values, shape, version: int) -> dict:
    """A checkpoint parameter entry holding ``values`` (flat, float64) in
    the encoding of checkpoint format ``version``: 1 stores ``data``, a list
    of numbers, 2 stores ``b64``, the base64 of the little-endian bytes."""
    values = np.asarray(values, dtype="<f8").reshape(-1)
    if version == 1:
        return {"shape": list(shape), "data": values.tolist()}
    return {"shape": list(shape), "b64": base64.b64encode(values.tobytes()).decode("ascii")}


def entry_values(entry) -> np.ndarray:
    """The flat float64 values of a parameter entry of either encoding."""
    if "data" in entry:
        return np.array(entry["data"], dtype=np.float64)
    return np.frombuffer(base64.b64decode(entry["b64"]), dtype="<f8").astype(np.float64)


def as_version(doc: dict, version: int) -> dict:
    """The parsed checkpoint document ``doc`` with its version field and
    every parameter entry in the encoding of ``version``; edited in place."""
    doc["version"] = version
    for name, entry in doc["params"].items():
        doc["params"][name] = encode_entry(entry_values(entry), entry["shape"], version)
    return doc


def set_value(doc: dict, name: str, index: int, value: float) -> None:
    """Store ``value`` at flat ``index`` of parameter ``name`` in ``doc``,
    keeping the entry's encoding."""
    entry = doc["params"][name]
    values = entry_values(entry)
    values[index] = value
    doc["params"][name] = encode_entry(values, entry["shape"], 1 if "data" in entry else 2)
