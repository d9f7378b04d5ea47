import json

import pytest

import mixkit as mk
from mixkit.modelspec import KINDS, document_for, dump_document, load_document, parse_document

MIXTURE_DOC = """
{
  "schema_version": 1,
  "kind": "mixture",
  "family": "normal",
  "atoms": [
    {"weight": 0.4, "mu": -1.0, "sigma": 1.0},
    {"weight": 0.6, "mu": 2.0, "sigma": 0.5}
  ]
}
"""

HMM_DOC = """
{
  "schema_version": 1,
  "kind": "hmm",
  "family": "normal",
  "initial": [0.5, 0.5],
  "transition": [[0.9, 0.1], [0.2, 0.8]],
  "emissions": [{"mu": 0.0, "sigma": 1.0}, {"mu": 5.0, "sigma": 1.0}]
}
"""


def test_parse_mixture_document():
    model = parse_document(MIXTURE_DOC)
    assert isinstance(model, mk.MixtureModel)
    assert model.family == "normal"
    assert model.measure.G == 2
    assert model.measure.weights[1] == 0.6


def test_parse_hmm_document():
    spec = parse_document(HMM_DOC)
    assert isinstance(spec, mk.HMMSpec)
    assert spec.components[1].mu == 5.0


def test_parse_prior_document():
    doc = {
        "schema_version": 1,
        "kind": "prior",
        "dirichlet_weights": [1.0, 1.0, 1.0],
        "normal_mean_loc": 0.0,
        "normal_mean_scale": 5.0,
        "ig_shape": 2.0,
        "ig_scale": 1.0,
    }
    prior = parse_document(json.dumps(doc))
    assert isinstance(prior, mk.ConjugatePrior)
    assert prior.G == 3


def test_parse_compound_documents():
    bb = parse_document(
        '{"schema_version": 1, "kind": "beta_binomial", "trials": 10, "alpha": 6.0, "beta": 14.0}'
    )
    assert bb == mk.BetaBinomialParams(10, 6.0, 14.0)
    nb = parse_document('{"schema_version": 1, "kind": "negative_binomial", "alpha": 3.0, "beta": 2.0}')
    assert nb == mk.NegativeBinomialParams(3.0, 2.0)
    dm = parse_document(
        '{"schema_version": 1, "kind": "dirichlet_multinomial", "trials": 4, "concentration": [2.0, 3.0]}'
    )
    assert dm == mk.DirichletMultinomialParams(4, (2.0, 3.0))


def test_round_trips_through_documents(two_bivariate, two_poisson):
    objs = [
        parse_document(MIXTURE_DOC),
        two_bivariate,
        two_poisson,
        parse_document(HMM_DOC),
        mk.ConjugatePrior((1.0, 1.0), 0.0, 10.0, 2.0, 1.0),
        mk.BetaBinomialParams(10, 6.0, 14.0),
        mk.NegativeBinomialParams(3.0, 2.0),
        mk.DirichletMultinomialParams(4, (2.0, 3.0, 4.0)),
    ]
    for obj in objs:
        assert parse_document(dump_document(obj)) == obj


def test_rejects_malformed_json():
    with pytest.raises(mk.SpecDocumentError) as exc:
        parse_document("{broken")
    assert "line" in str(exc.value)


def test_rejects_unknown_kind_and_version():
    with pytest.raises(mk.SpecDocumentError):
        parse_document('{"schema_version": 1, "kind": "tree"}')
    with pytest.raises(mk.SpecDocumentError):
        parse_document('{"schema_version": 2, "kind": "mixture"}')
    with pytest.raises(mk.SpecDocumentError):
        parse_document('{"kind": "mixture"}')
    with pytest.raises(mk.SpecDocumentError):
        parse_document("[1, 2, 3]")


def test_rejects_invalid_values_with_context():
    doc = {
        "schema_version": 1,
        "kind": "mixture",
        "family": "normal",
        "atoms": [{"weight": 1.0, "mu": 0.0, "sigma": -1.0}],
    }
    with pytest.raises(mk.SpecDocumentError):
        parse_document(json.dumps(doc))
    hmm = json.loads(HMM_DOC)
    hmm["transition"] = [[0.9, 0.2], [0.2, 0.8]]
    with pytest.raises(mk.SpecDocumentError):
        parse_document(json.dumps(hmm))


def test_load_document_from_disk(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(MIXTURE_DOC, encoding="utf-8")
    model = load_document(str(path))
    assert model.measure.G == 2
    with pytest.raises(mk.SpecDocumentError):
        load_document(str(tmp_path / "absent.json"))


def test_document_for_carries_kind_and_version(two_poisson):
    doc = document_for(two_poisson)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "mixture"
    assert doc["family"] == "poisson"
    doc = document_for(mk.NegativeBinomialParams(3.0, 2.0))
    assert doc["kind"] == "negative_binomial"
    with pytest.raises(mk.DomainError):
        document_for("not a model")


# one valid document of every kind (a kind without one fails collection);
# each case below edits one of them
VALID = {
    "mixture": json.loads(MIXTURE_DOC),
    "hmm": json.loads(HMM_DOC),
    "prior": {"schema_version": 1, "kind": "prior", "dirichlet_weights": [1.0, 1.0], "normal_mean_loc": 0.0,
              "normal_mean_scale": 5.0, "ig_shape": 2.0, "ig_scale": 1.0},
    "beta_binomial": {"schema_version": 1, "kind": "beta_binomial", "trials": 10, "alpha": 6.0, "beta": 14.0},
    "negative_binomial": {"schema_version": 1, "kind": "negative_binomial", "alpha": 3.0, "beta": 2.0},
    "dirichlet_multinomial": {"schema_version": 1, "kind": "dirichlet_multinomial", "trials": 4,
                              "concentration": [2.0, 3.0]},
}
FIELDS = [(kind, field) for kind in KINDS for field in VALID[kind] if field not in ("schema_version", "kind")]


@pytest.mark.parametrize("kind, field", FIELDS)
def test_a_missing_field_is_named_with_its_kind(kind, field):
    doc = {k: v for k, v in VALID[kind].items() if k != field}
    with pytest.raises(mk.SpecDocumentError, match=rf"^{kind}: missing field\(s\) \['{field}'\]$"):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("kind", KINDS)
def test_an_unknown_field_is_named_with_its_kind(kind):
    with pytest.raises(mk.SpecDocumentError, match=rf"^{kind}: unknown field\(s\) \['colour'\]$"):
        parse_document(json.dumps({**VALID[kind], "colour": "red"}))


@pytest.mark.parametrize("emission", [5.0, [0.0, 1.0], None])
def test_an_hmm_emission_that_is_no_mapping_is_named(emission):
    doc = {**VALID["hmm"], "emissions": [{"mu": 0.0, "sigma": 1.0}, emission]}
    with pytest.raises(mk.SpecDocumentError, match=r"^hmm: emission 1: expected a mapping$"):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("field, value", [("transition", 5), ("transition", [5, 5]), ("transition", None),
                                          ("initial", 0.5)])
def test_an_hmm_probability_field_that_is_no_list_is_named(field, value):
    with pytest.raises(mk.SpecDocumentError, match=r"^hmm: .*not iterable$"):
        parse_document(json.dumps({**VALID["hmm"], field: value}))
