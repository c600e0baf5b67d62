"""JSON documents for kernels, measures, functions, scenarios, reports.

Every document is a flat JSON object with a "type" discriminator and is
validated against the shipped schema once on its way in or out: when it
is loaded, saved, or built (certificates, reports). A document that
load_document has checked is built into its object without a second
check. Each schema is built into a validator, and checked itself, once
on first use. The schema does not descend into the entries of a matrix
or vector field (kernel rows, generator rates, measure weights, statefn
values) that are plain JSON numbers; one type pass finds them, and
JSON booleans, which numpy would read as 0 and 1, are no plain numbers.
Measures and functions carry the full label list so a file stands on
its own; loaders accept an expected space and verify the labels
against it. Floats that JSON cannot carry (inf, nan) are stored as
strings and revived on read.
"""

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np
import jsonschema

from .core import Kernel, Measure, StateFn, StateSet, StateSpace
from .semigroup import Generator
from .scenarios import Scenario

__all__ = [
    "SCHEMAS",
    "jsonable",
    "validate_document",
    "kernel_to_doc", "kernel_from_doc",
    "generator_to_doc", "generator_from_doc",
    "semigroup_to_doc", "semigroup_from_doc",
    "measure_to_doc", "measure_from_doc",
    "statefn_to_doc", "statefn_from_doc",
    "stateset_to_doc", "stateset_from_doc",
    "scenario_to_doc", "scenario_from_doc",
    "certificate_to_doc",
    "save_document", "load_document",
    "write_series_csv",
]

_LABELS = {"type": "array", "items": {"type": "string"}, "minItems": 1}
_ROW = {"type": "array", "items": {"type": "number"}}
_MATRIX = {"type": "array", "items": _ROW, "minItems": 1}
_JSON_NUMBER = {"anyOf": [{"type": "number"},
                          {"type": "string", "enum": ["inf", "-inf", "nan"]}]}

SCHEMAS = {
    "kernel": {
        "type": "object",
        "required": ["type", "labels", "rows"],
        "properties": {
            "type": {"const": "kernel"},
            "labels": _LABELS,
            "rows": _MATRIX,
            "kind": {"enum": ["markovian", "sub-markovian", "general"]},
        },
        "additionalProperties": False,
    },
    "generator": {
        "type": "object",
        "required": ["type", "labels", "rates"],
        "properties": {
            "type": {"const": "generator"},
            "labels": _LABELS,
            "rates": _MATRIX,
            "lam": {"type": "number"},
        },
        "additionalProperties": False,
    },
    "measure": {
        "type": "object",
        "required": ["type", "labels", "weights"],
        "properties": {
            "type": {"const": "measure"},
            "labels": _LABELS,
            "weights": _ROW,
        },
        "additionalProperties": False,
    },
    "statefn": {
        "type": "object",
        "required": ["type", "labels", "values"],
        "properties": {
            "type": {"const": "statefn"},
            "labels": _LABELS,
            "values": {"type": "array", "items": _JSON_NUMBER},
            "extended": {"type": "boolean"},
        },
        "additionalProperties": False,
    },
    "stateset": {
        "type": "object",
        "required": ["type", "labels", "members"],
        "properties": {
            "type": {"const": "stateset"},
            "labels": _LABELS,
            "members": {"type": "array", "items": {"type": "integer"}},
        },
        "additionalProperties": False,
    },
    "scenario": {
        "type": "object",
        "required": ["type", "id"],
        "properties": {
            "type": {"const": "scenario"},
            "id": {"type": "string"},
            "params": {"type": "object"},
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "certificate": {
        "type": "object",
        "required": ["condition", "verdict"],
        "properties": {
            # the tag is present on standalone files, absent on the
            # copies nested under "attached" or inside reports
            "type": {"const": "certificate"},
            "condition": {"type": "string"},
            "verdict": {"enum": ["holds", "fails", "inconclusive"]},
            "constants": {"type": "object"},
            "witness": {"type": ["object", "null"]},
            "notes": {"type": "string"},
            "attached": {"type": "array"},
        },
        "additionalProperties": False,
    },
    "report": {
        "type": "object",
        "required": ["type", "certificates", "invariants_found"],
        "properties": {
            "type": {"const": "report"},
            "scenario": {"type": ["object", "null"]},
            "certificates": {"type": "array", "items": {"type": "object"}},
            "invariants_found": {"type": "array", "items": {"type": "object"}},
            "profiles": {"type": "object"},
            "timing": {"type": "object"},
            "errors": {"type": "array", "items": {"type": "string"}},
        },
        "additionalProperties": False,
    },
    "pipeline-config": {
        "type": "object",
        "required": ["type"],
        "properties": {
            "type": {"const": "pipeline-config"},
            "scenario": {"type": "object"},
            "inputs": {
                "type": "object",
                "properties": {
                    "kernel": {"type": "string"},
                    "generator": {"type": "string"},
                    "m": {"type": "string"},
                    "mu": {"type": "string"},
                    "lyapunov": {"type": "string"},
                },
                "additionalProperties": False,
            },
            "m": _ROW,
            "mu": _ROW,
            "steps": {"type": "array",
                      "items": {"type": ["string", "object"]}},
            "horizon": {"type": "integer", "minimum": 1},
            "out": {"type": "string"},
            "csv_dir": {"type": "string"},
        },
        "additionalProperties": False,
    },
}


def jsonable(value):
    """Recursively convert numpy scalars/arrays and non-finite floats."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if (isinstance(value, np.ndarray) and value.ndim
            and value.dtype.kind in "biuf" and np.isfinite(value).all()):
        return value.tolist()
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return value


@functools.cache
def _validator(tag: str):
    """The validator of one document type, its schema checked once."""
    schema = SCHEMAS[tag]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# the matrix or vector field of each numeric document
_ENTRIES = {"kernel": "rows", "generator": "rates", "measure": "weights",
            "statefn": "values"}
_PLAIN = frozenset((float, int))
_NAMED = frozenset(("inf", "-inf", "nan"))


def _plain(entries, tag: str) -> bool:
    """Whether every entry of one list satisfies the schema: a JSON number,
    or in a statefn the name of a non-finite float. bool is no plain type."""
    if type(entries) is not list:
        return False
    kinds = set(map(type, entries))
    if kinds <= _PLAIN:
        return True
    return (tag == "statefn" and kinds <= _PLAIN | {str}
            and _NAMED.issuperset(v for v in entries if type(v) is str))


def _held_out(doc, tag: str):
    """doc with each plain list of its numeric field emptied.

    A plain list raises no schema error, and every other part of doc is
    kept where it was, so the schema finds the same errors at the same
    paths in the result as in doc, without visiting the plain entries.
    """
    field = _ENTRIES.get(tag)
    if type(doc) is not dict or type(doc.get(field)) is not list:
        return doc
    value = doc[field]
    if tag in ("measure", "statefn"):
        return {**doc, field: [] if _plain(value, tag) else value}
    return {**doc, field: [[] if _plain(row, tag) else row for row in value]}


def _check(doc: dict, tag: str) -> None:
    """What jsonschema.validate does, without re-checking the schema or
    visiting the plain entries of a numeric field."""
    error = jsonschema.exceptions.best_match(
        _validator(tag).iter_errors(_held_out(doc, tag)))
    if error is not None:
        raise error


def validate_document(doc: dict) -> str:
    """Check a document against its schema; returns the type tag."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("document must be an object with a 'type' field")
    tag = doc["type"]
    if tag not in SCHEMAS:
        raise ValueError(f"unknown document type {tag!r}")
    try:
        _check(doc, tag)
    except jsonschema.ValidationError as exc:
        raise ValueError(f"invalid {tag} document: {exc.message}") from exc
    return tag


def kernel_to_doc(K: Kernel) -> dict:
    return {"type": "kernel", "labels": list(K.space.labels),
            "rows": K.rows.tolist(), "kind": K.kind}


def kernel_from_doc(doc: dict) -> Kernel:
    validate_document(doc)
    return _kernel(doc)


def _kernel(doc: dict) -> Kernel:
    space = StateSpace(doc["labels"])
    return Kernel(space, np.array(doc["rows"], dtype=float),
                  kind=doc.get("kind", "markovian"))


def generator_to_doc(G: Generator) -> dict:
    return {"type": "generator", "labels": list(G.space.labels),
            "rates": G.rates.tolist(), "lam": float(G.lam)}


def generator_from_doc(doc: dict) -> Generator:
    validate_document(doc)
    return _generator(doc)


def _generator(doc: dict) -> Generator:
    space = StateSpace(doc["labels"])
    lam = doc.get("lam")
    return Generator(space, np.array(doc["rates"], dtype=float), lam=lam)


def semigroup_to_doc(S) -> dict:
    if isinstance(S, Kernel):
        return kernel_to_doc(S)
    return generator_to_doc(S)


def semigroup_from_doc(doc: dict):
    tag = validate_document(doc)
    if tag == "kernel":
        return _kernel(doc)
    if tag == "generator":
        return _generator(doc)
    raise ValueError(f"expected kernel or generator, got {tag}")


def _check_labels(doc, space: StateSpace | None, what: str) -> StateSpace:
    if space is None:
        return StateSpace(doc["labels"])
    if tuple(doc["labels"]) != space.labels:
        raise ValueError(f"{what} labels do not match the expected space")
    return space


def measure_to_doc(m: Measure) -> dict:
    return {"type": "measure", "labels": list(m.space.labels),
            "weights": m.weights.tolist()}


def measure_from_doc(doc: dict, space: StateSpace | None = None) -> Measure:
    validate_document(doc)
    return _measure(doc, space)


def _measure(doc: dict, space: StateSpace | None = None) -> Measure:
    sp = _check_labels(doc, space, "measure")
    return Measure(sp, np.array(doc["weights"], dtype=float))


def statefn_to_doc(f: StateFn) -> dict:
    return {"type": "statefn", "labels": list(f.space.labels),
            "values": jsonable(f.values), "extended": bool(f.extended)}


def statefn_from_doc(doc: dict, space: StateSpace | None = None) -> StateFn:
    validate_document(doc)
    return _statefn(doc, space)


def _statefn(doc: dict, space: StateSpace | None = None) -> StateFn:
    sp = _check_labels(doc, space, "statefn")
    values = np.array([float(v) for v in doc["values"]])
    return StateFn(sp, values, extended=doc.get("extended", False))


def stateset_to_doc(s: StateSet) -> dict:
    return {"type": "stateset", "labels": list(s.space.labels),
            "members": [int(i) for i in s.members]}


def stateset_from_doc(doc: dict, space: StateSpace | None = None) -> StateSet:
    validate_document(doc)
    return _stateset(doc, space)


def _stateset(doc: dict, space: StateSpace | None = None) -> StateSet:
    sp = _check_labels(doc, space, "stateset")
    return StateSet(sp, doc["members"])


def scenario_to_doc(s: Scenario) -> dict:
    return {"type": "scenario", "id": s.id, "params": jsonable(s.params),
            "seed": int(s.seed)}


def scenario_from_doc(doc: dict) -> Scenario:
    validate_document(doc)
    return Scenario(doc["id"], dict(doc.get("params", {})),
                    int(doc.get("seed", 0)))


def certificate_to_doc(cert) -> dict:
    doc = {"condition": cert.condition, "verdict": cert.verdict,
           "constants": jsonable(cert.constants),
           "witness": jsonable(cert.witness),
           "notes": cert.notes,
           "attached": [certificate_to_doc(c) for c in cert.attached]}
    _check(doc, "certificate")
    return doc


def save_document(doc: dict, path) -> None:
    validate_document(doc)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_document(path, expect: str | None = None) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    tag = validate_document(doc)
    if expect is not None and tag != expect:
        raise ValueError(f"expected a {expect} document, got {tag}")
    return doc


# the object each loadable document type describes, built from a
# document that has passed its schema check
_BUILD = {"kernel": _kernel, "generator": _generator, "measure": _measure,
          "statefn": _statefn, "stateset": _stateset}


def _load(path, expect: str, *space):
    """load_document(path, expect), built into its object without a
    second check; space is the expected space of a measure, statefn or
    stateset."""
    return _BUILD[expect](load_document(path, expect), *space)


def write_series_csv(path, columns, rows) -> None:
    """Plot series as plain CSV: a header line then numeric rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([jsonable(v) for v in row])
