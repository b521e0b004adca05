"""Versioned JSON serialization of fitted model stacks, for audit and reload."""
from __future__ import annotations

import json

import numpy as np

from ..errors import ParseError, SchemaMismatch
from .forest import RandomForestModel
from .knn import KnnModel
from .optimizers import LinearModel
from .stack import OrderedDescriptor, SegmentModelSet

FORMAT_VERSION = 3
HEAD_KINDS = {"knn": KnnModel, "rf": RandomForestModel}


def _linear_to_dict(model: LinearModel) -> dict:
    return {
        "bias": float(model.bias),
        "l1_strength": float(model.l1_strength),
        "task": model.task,
        "converged": bool(model.converged),
        "coefficients": {n: float(w) for n, w in zip(model.feature_names, model.weights)
                         if w != 0.0},
        "feature_names": list(model.feature_names),
    }


def _linear_from_dict(doc: dict) -> LinearModel:
    names = doc["feature_names"]
    weights = np.array([doc["coefficients"].get(n, 0.0) for n in names])
    return LinearModel(weights, doc["bias"], names, doc["l1_strength"],
                       doc["task"], converged=doc["converged"])


def descriptor_to_dict(desc: OrderedDescriptor | None) -> dict | None:
    """A road's descriptor; a road without one (`NO_CLUSTER`) is `None`."""
    if desc is None:
        return None
    return {
        "n_clusters": desc.n_clusters,
        "classifiers": [_linear_to_dict(m) for m in desc.classifiers],
        "feature_names": desc.feature_names,
    }


def descriptor_from_dict(doc: dict | None) -> OrderedDescriptor | None:
    if doc is None:
        return None
    return OrderedDescriptor(doc["n_clusters"],
                             [_linear_from_dict(m) for m in doc["classifiers"]],
                             doc["feature_names"])


def segment_to_dict(model: SegmentModelSet) -> dict:
    return {
        "segment_id": model.segment_id,
        "classifier": _linear_to_dict(model.classifier),
        "regressors": {k: _linear_to_dict(v) for k, v in sorted(model.regressors.items())},
        "feature_names": model.feature_names,
        "heads": {k: h.to_dict() for k, h in sorted(model.heads.items())},
        "flags": sorted(model.flags),
    }


def segment_from_dict(doc: dict) -> SegmentModelSet:
    return SegmentModelSet(
        segment_id=doc["segment_id"],
        classifier=_linear_from_dict(doc["classifier"]),
        regressors={k: _linear_from_dict(v) for k, v in doc["regressors"].items()},
        feature_names=doc["feature_names"],
        heads={k: HEAD_KINDS[h["kind"]].from_dict(h) for k, h in doc["heads"].items()},
        flags=list(doc["flags"]),
    )


def bundle_to_json(descriptors: dict, segment_models: dict, meta: dict | None = None) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "meta": meta or {},
        "descriptors": {road: descriptor_to_dict(d) for road, d in sorted(descriptors.items())},
        "segments": {sid: segment_to_dict(m) for sid, m in sorted(segment_models.items())},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def bundle_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"model bundle is not JSON: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch("format_version", "model bundle is not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaMismatch("format_version", "unsupported model bundle version "
                             f"{doc.get('format_version')}, expected {FORMAT_VERSION}; "
                             "retrain it with `t2t train`")
    for key in ("meta", "descriptors", "segments"):
        if key not in doc:
            raise SchemaMismatch(key, "model bundle lacks this key")
    try:
        descriptors = {road: descriptor_from_dict(d) for road, d in doc["descriptors"].items()}
        segments = {sid: segment_from_dict(m) for sid, m in doc["segments"].items()}
    except KeyError as exc:
        raise SchemaMismatch(str(exc.args[0]), "a model bundle entry lacks this key") from None
    return descriptors, segments, doc["meta"]


def bundle_hash(descriptors: dict, segment_models: dict) -> str:
    # loaded here so that importing the CLI loads no hashlib and OpenSSL; of the
    # commands, only `synth`, the rf variant and `describe` load them (through
    # numpy.random)
    import hashlib

    payload = bundle_to_json(descriptors, segment_models, meta={})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
