"""Model specification documents.

One JSON envelope covers every object the command line can ingest: mixture
models, hidden Markov chains, conjugate priors and compound-distribution
parameters.  A ``kind`` field discriminates; unknown fields anywhere are
rejected so that typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import dataclasses
import json

from .bayes import ConjugatePrior
from .components import _fields_dict, component_from_dict
from .compound import (
    BetaBinomialParams,
    DirichletMultinomialParams,
    NegativeBinomialParams,
)
from .errors import DomainError, MixtureError, SpecDocumentError, _require_fields
from .models import MixtureModel, model_from_dict, model_to_dict
from .sampling import HMMSpec

SCHEMA_VERSION = 1

# kind -> the class its documents parse to.  A flat kind's document holds
# exactly its class's dataclass fields; mixture and hmm documents name theirs
# differently (atoms, transition, emissions) and have their own code.
_CLASSES = {
    "mixture": MixtureModel,
    "hmm": HMMSpec,
    "prior": ConjugatePrior,
    "beta_binomial": BetaBinomialParams,
    "negative_binomial": NegativeBinomialParams,
    "dirichlet_multinomial": DirichletMultinomialParams,
}
KINDS = tuple(_CLASSES)
_ENVELOPE = ("schema_version", "kind")


def _kind_of(obj):
    """The kind whose documents parse to ``obj``'s class, or None."""
    return next((kind for kind, cls in _CLASSES.items() if isinstance(obj, cls)), None)


def _parse_mixture(doc):
    body = {k: v for k, v in doc.items() if k not in _ENVELOPE}
    return model_from_dict(body, context="mixture")


def _parse_hmm(doc):
    _require_fields(doc, (*_ENVELOPE, "family", "initial", "transition", "emissions"), "hmm")
    family = doc["family"]
    emissions = doc["emissions"]
    if not isinstance(emissions, list) or not emissions:
        raise SpecDocumentError("hmm: emissions must be a non-empty list")
    comps = [
        component_from_dict(family, e, context=f"hmm: emission {k}")
        for k, e in enumerate(emissions)
    ]
    try:
        return HMMSpec(initial=doc["initial"], xi=doc["transition"], components=tuple(comps))
    except (MixtureError, TypeError) as exc:
        raise SpecDocumentError(f"hmm: {exc}") from exc


def _parse_flat(doc, kind):
    """The object of a flat kind, built from the document's fields (the class
    stores a list field as a tuple)."""
    names = [f.name for f in dataclasses.fields(_CLASSES[kind])]
    _require_fields(doc, (*_ENVELOPE, *names), kind)
    try:
        return _CLASSES[kind](**{k: doc[k] for k in names})
    except (MixtureError, TypeError) as exc:
        raise SpecDocumentError(f"{kind}: {exc}") from exc


def parse_document(text):
    """Parse one specification document; returns the domain object it names."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecDocumentError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SpecDocumentError("the document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SpecDocumentError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecDocumentError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "mixture":
        return _parse_mixture(doc)
    if kind == "hmm":
        return _parse_hmm(doc)
    return _parse_flat(doc, kind)


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecDocumentError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def document_for(obj):
    """The JSON-ready dict a given domain object serializes to."""
    kind = _kind_of(obj)
    if kind is None:
        raise DomainError(f"cannot serialize {type(obj).__name__}")
    if kind == "mixture":
        body = model_to_dict(obj)
    elif kind == "hmm":
        body = {
            "family": obj.family,
            "initial": list(obj.initial),
            "transition": [list(r) for r in obj.xi],
            "emissions": [c.params_dict() for c in obj.components],
        }
    else:
        body = _fields_dict(obj)
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **body}


def dump_document(obj):
    return json.dumps(document_for(obj), indent=2) + "\n"
