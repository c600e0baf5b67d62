"""Scenario bundles and the JSON document layer."""

import json
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ergocert.core import Kernel, Measure, StateFn, StateSet, StateSpace, push
from ergocert.semigroup import Generator
from ergocert.solver import decompose
from ergocert.scenarios import (
    Scenario,
    absorbing_pair,
    birth_death,
    block_chain,
    ctmc_symmetric,
    generate,
    lazy_cycle,
    ou_grid,
    outward_walk,
    scenario_ids,
    two_state,
)
from ergocert import io
from oracles import check_projector


class TestScenarioBundles:
    def test_registry_dispatch(self):
        ids = scenario_ids()
        assert "two_state" in ids and "ou_grid" in ids
        bundle = generate(Scenario("two_state", {"p": 0.1, "q": 0.2}))
        assert bundle.kernel.size == 2
        with pytest.raises(ValueError, match="unknown scenario"):
            generate(Scenario("no_such_model"))

    def test_two_state_invariant_rides_along(self):
        bundle = two_state(0.1, 0.2)
        assert_allclose(push(bundle.m, bundle.kernel).weights,
                        bundle.m.weights, atol=1e-12)

    def test_absorbing_pair_shape(self):
        bundle = absorbing_pair()
        assert_allclose(bundle.kernel.rows, [[0.0, 1.0], [0.0, 1.0]])
        assert_allclose(bundle.m.weights, [0.5, 0.5])
        assert_allclose(bundle.extras["m_dirac"].weights, [1.0, 0.0])

    def test_birth_death_drift_witnesses(self):
        bundle = birth_death(30, 0.7)
        v = bundle.V.values
        pv = bundle.kernel.rows @ v
        # unit decrease everywhere except the origin, which pays b
        assert (pv[1:] <= v[1:] - 1.0 + 1e-12).all()
        assert_allclose(pv[0] - v[0], bundle.extras["drift_b"] - 1.0)
        assert_allclose(push(bundle.m, bundle.kernel).weights,
                        bundle.m.weights, atol=1e-12)

    def test_long_outward_walk_law_stays_finite(self):
        # the law grows by 7/3 per state, beyond double range from n = 840
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = outward_walk(900, 0.7).m.weights
        down = 1.0 - 0.7  # the p_down of the walk, as the bundle takes it
        with localcontext() as ctx:
            ctx.prec = 40
            ratio = Decimal(down) / Decimal(1.0 - down)
            exact = [ratio ** (899 - i) for i in range(900)]
            total = sum(exact)
            want = np.array([float(x / total) for x in exact])
        assert want[-1] > 0.5 and want[0] == 0.0
        assert_allclose(w, want, rtol=1e-12, atol=np.finfo(float).tiny)

    def test_outward_walk_reverses_drift(self):
        bundle = outward_walk(20, 0.7)
        heavy_end = bundle.m.weights[-1]
        assert heavy_end > bundle.m.weights[0]

    def test_ou_grid_full_support_and_window(self):
        bundle = ou_grid(n=21)
        assert (bundle.kernel.rows > 0.0).all()
        assert_allclose(bundle.kernel.rows.sum(axis=1), 1.0, atol=1e-12)
        assert bundle.extras["contraction"] == 1.0 - 0.5 * 0.8
        assert 0 < len(bundle.C.members) < 21
        assert_allclose(push(bundle.m, bundle.kernel).weights,
                        bundle.m.weights, atol=1e-10)

    def test_block_chain_class_count(self):
        bundle = block_chain(3, 4, seed=5)
        d = decompose(bundle.kernel)
        check_projector(d, bundle.kernel)
        assert d.n_classes == 3
        assert bundle.extras["classes"] == 3

    def test_lazy_cycle_uniform_invariant(self):
        bundle = lazy_cycle(6, 0.5)
        assert_allclose(push(bundle.m, bundle.kernel).weights,
                        bundle.m.weights, atol=1e-12)
        assert bundle.extras["spec"].b == 0.5

    def test_ctmc_bundle_is_continuous(self):
        bundle = ctmc_symmetric()
        assert isinstance(bundle.kernel, Generator)
        assert_allclose(bundle.extras["m_skew"].weights, [0.9, 0.1])

    def test_determinism_per_seed(self):
        a = block_chain(2, 3, seed=9)
        b = block_chain(2, 3, seed=9)
        assert_allclose(a.kernel.rows, b.kernel.rows)


class TestDocumentRoundTrips:
    S3 = StateSpace.range(3)

    def test_kernel(self):
        K = Kernel(self.S3, [[0.2, 0.8, 0.0],
                             [0.5, 0.5, 0.0],
                             [0.1, 0.2, 0.7]])
        doc = io.kernel_to_doc(K)
        back = io.kernel_from_doc(json.loads(json.dumps(doc)))
        assert back.space == K.space
        assert_allclose(back.rows, K.rows)
        assert back.kind == "markovian"

    def test_generator(self):
        G = Generator(self.S3, [[-1.0, 1.0, 0.0],
                                [2.0, -3.0, 1.0],
                                [0.0, 0.5, -0.5]])
        back = io.generator_from_doc(io.generator_to_doc(G))
        assert_allclose(back.rates, G.rates)
        assert back.lam == G.lam

    def test_semigroup_dispatch(self):
        K = Kernel(self.S3, np.eye(3))
        G = Generator(self.S3, np.zeros((3, 3)))
        assert isinstance(io.semigroup_from_doc(io.semigroup_to_doc(K)),
                          Kernel)
        assert isinstance(io.semigroup_from_doc(io.semigroup_to_doc(G)),
                          Generator)

    def test_measure_and_label_check(self):
        m = Measure(self.S3, [0.1, 0.0, 0.9])
        doc = io.measure_to_doc(m)
        assert_allclose(io.measure_from_doc(doc, self.S3).weights, m.weights)
        other = StateSpace(["a", "b", "c"])
        with pytest.raises(ValueError, match="labels"):
            io.measure_from_doc(doc, other)

    def test_statefn_with_infinite_values(self):
        f = StateFn(self.S3, [0.0, np.inf, 2.5], extended=True)
        doc = io.statefn_to_doc(f)
        # inf must survive the actual JSON text, not just the dict
        text = json.dumps(doc)
        back = io.statefn_from_doc(json.loads(text))
        assert back.values[1] == np.inf
        assert back.values[2] == 2.5
        assert back.extended

    def test_stateset(self):
        s = StateSet(self.S3, [0, 2])
        back = io.stateset_from_doc(io.stateset_to_doc(s), self.S3)
        assert list(back.members) == [0, 2]

    def test_scenario(self):
        s = Scenario("birth_death", {"n": 10, "p_down": 0.7}, seed=3)
        back = io.scenario_from_doc(io.scenario_to_doc(s))
        assert back == s

    def test_certificate_doc_validates(self):
        from ergocert.certificates.almost import check_almost_invariant
        from ergocert.certificates.phi import (AlmostInvarianceParams,
                                               PhiLinear)
        K = Kernel(StateSpace.range(2), [[0.9, 0.1], [0.2, 0.8]])
        m = Measure(K.space, [2 / 3, 1 / 3])
        cert = check_almost_invariant(
            K, m, AlmostInvarianceParams(PhiLinear(3.0), 0.0))
        doc = io.certificate_to_doc(cert)
        assert doc["verdict"] == "holds"
        json.dumps(doc)


class TestValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown document type"):
            io.validate_document({"type": "mystery"})

    def test_missing_type_rejected(self):
        with pytest.raises(ValueError, match="'type' field"):
            io.validate_document({"labels": ["a"]})

    def test_schema_violation_message_names_type(self):
        with pytest.raises(ValueError, match="invalid kernel"):
            io.validate_document({"type": "kernel", "labels": ["a"]})

    def test_extra_fields_rejected(self):
        doc = {"type": "measure", "labels": ["a"], "weights": [1.0],
               "spurious": 1}
        with pytest.raises(ValueError, match="invalid measure"):
            io.validate_document(doc)


class TestFiles:
    def test_save_load_cycle(self, tmp_path):
        m = Measure(StateSpace.range(2), [0.25, 0.75])
        path = tmp_path / "m.json"
        io.save_document(io.measure_to_doc(m), path)
        doc = io.load_document(path, expect="measure")
        assert_allclose(io.measure_from_doc(doc).weights, [0.25, 0.75])

    def test_expect_mismatch(self, tmp_path):
        m = Measure(StateSpace.range(2), [0.25, 0.75])
        path = tmp_path / "m.json"
        io.save_document(io.measure_to_doc(m), path)
        with pytest.raises(ValueError, match="expected a kernel"):
            io.load_document(path, expect="kernel")

    def test_broken_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read"):
            io.load_document(path)

    def test_write_series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        io.write_series_csv(path, ["n", "norm"],
                            [(1, 0.5), (2, np.float64(0.25))])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,norm"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,0.25"


def _kernel_doc(rows, labels=("a", "b")):
    return {"type": "kernel", "labels": list(labels), "rows": rows}


def _large_rows(i, j, entry, n=1200):
    """n rows of n zeros, entry at (i, j); the clean rows share one list."""
    rows = [[0.0] * n] * n
    rows[i] = rows[i][:j] + [entry] + rows[i][j + 1:]
    return rows


LARGE_LABELS = [f"s{i}" for i in range(1200)]
# each document, the loader that reads it, and the ValueError text it
# raises, as the schema's walk through every matrix entry raised it; a
# ragged matrix is refused by row index, and a statefn names only "inf"
MALFORMED = {
    "kernel-ragged": (
        _kernel_doc([[0.5, 0.5], [1.0]]), io.kernel_from_doc,
        "invalid kernel document: row 1 has 1 entries, expected 2"),
    "kernel-empty-row": (
        _kernel_doc([[0.5, 0.5], []]), io.kernel_from_doc,
        "invalid kernel document: row 1 has 0 entries, expected 2"),
    "kernel-ragged-first-row": (
        _kernel_doc([[1.0], [0.5, 0.5]]), io.kernel_from_doc,
        "invalid kernel document: row 1 has 2 entries, expected 1"),
    "kernel-only-empty-row": (
        _kernel_doc([[]], ["a"]), io.kernel_from_doc,
        "expected (1, 1) matrix, got (1, 0)"),
    "kernel-string": (
        _kernel_doc([[0.5, "0.5"], [0.2, 0.8]]), io.kernel_from_doc,
        "invalid kernel document: '0.5' is not of type 'number'"),
    "kernel-true": (
        _kernel_doc([[0.5, True], [0.2, 0.8]]), io.kernel_from_doc,
        "invalid kernel document: True is not of type 'number'"),
    "kernel-null": (
        _kernel_doc([[0.5, None], [0.2, 0.8]]), io.kernel_from_doc,
        "invalid kernel document: None is not of type 'number'"),
    "kernel-row-not-a-list": (
        _kernel_doc([[0.5, 0.5], 3]), io.kernel_from_doc,
        "invalid kernel document: 3 is not of type 'array'"),
    "kernel-no-rows": (
        _kernel_doc([]), io.kernel_from_doc,
        "invalid kernel document: [] should be non-empty"),
    "kernel-rows-not-a-list": (
        _kernel_doc(5), io.kernel_from_doc,
        "invalid kernel document: 5 is not of type 'array'"),
    "kernel-two-bad-rows": (
        _kernel_doc([[True, 0.5], ["x", 0.8]]), io.kernel_from_doc,
        "invalid kernel document: 'x' is not of type 'number'"),
    "kernel-bad-entry-and-extra-field": (
        {**_kernel_doc([[True, 0.5], [0.2, 0.8]]), "spurious": 1},
        io.kernel_from_doc,
        "invalid kernel document: Additional properties are not allowed "
        "('spurious' was unexpected)"),
    "kernel-bad-entry-and-no-labels": (
        {"type": "kernel", "rows": [[True]]}, io.kernel_from_doc,
        "invalid kernel document: 'labels' is a required property"),
    "kernel-bad-entry-and-bad-label": (
        _kernel_doc([[0.5, 0.5], [0.2, "y"]], ["a", 2]), io.kernel_from_doc,
        "invalid kernel document: 2 is not of type 'string'"),
    "kernel-label-count": (
        _kernel_doc([[0.5, 0.5], [0.2, 0.8]], ["a"]), io.kernel_from_doc,
        "expected (1, 1) matrix, got (2, 2)"),
    "kernel-1200-string-in-row-1199": (
        _kernel_doc(_large_rows(1199, 7, "x"), LARGE_LABELS),
        io.kernel_from_doc,
        "invalid kernel document: 'x' is not of type 'number'"),
    "kernel-1200-true-in-row-1199": (
        _kernel_doc(_large_rows(1199, 1198, True), LARGE_LABELS),
        io.kernel_from_doc,
        "invalid kernel document: True is not of type 'number'"),
    "generator-ragged": (
        {"type": "generator", "labels": ["a", "b"],
         "rates": [[-1.0, 1.0], [0.0]]}, io.generator_from_doc,
        "invalid generator document: row 1 has 1 entries, expected 2"),
    "generator-string": (
        {"type": "generator", "labels": ["a", "b"],
         "rates": [[-1.0, "1"], [1.0, -1.0]]}, io.generator_from_doc,
        "invalid generator document: '1' is not of type 'number'"),
    "generator-true": (
        {"type": "generator", "labels": ["a", "b"],
         "rates": [[-1.0, 1.0], [True, -1.0]]}, io.generator_from_doc,
        "invalid generator document: True is not of type 'number'"),
    "generator-label-count": (
        {"type": "generator", "labels": ["a", "b", "c"],
         "rates": [[-1.0, 1.0], [1.0, -1.0]]}, io.generator_from_doc,
        "expected (3, 3) rate matrix, got (2, 2)"),
    "measure-string": (
        {"type": "measure", "labels": ["a", "b"], "weights": [0.5, "0.5"]},
        io.measure_from_doc,
        "invalid measure document: '0.5' is not of type 'number'"),
    "measure-true": (
        {"type": "measure", "labels": ["a", "b"], "weights": [True, 0.5]},
        io.measure_from_doc,
        "invalid measure document: True is not of type 'number'"),
    "measure-nested": (
        {"type": "measure", "labels": ["a", "b"], "weights": [[0.5], 0.5]},
        io.measure_from_doc,
        "invalid measure document: [0.5] is not of type 'number'"),
    "measure-empty": (
        {"type": "measure", "labels": ["a", "b"], "weights": []},
        io.measure_from_doc, "expected 2 weights, got (0,)"),
    "measure-label-count": (
        {"type": "measure", "labels": ["a", "b"], "weights": [1.0]},
        io.measure_from_doc, "expected 2 weights, got (1,)"),
    "statefn-nan": (
        {"type": "statefn", "labels": ["a", "b"], "values": ["nan", 1.0],
         "extended": True}, io.statefn_from_doc,
        "invalid statefn document: 'nan' is not one of ['inf']"),
    "statefn-minus-inf": (
        {"type": "statefn", "labels": ["a", "b"], "values": [0.0, "-inf"],
         "extended": True}, io.statefn_from_doc,
        "invalid statefn document: '-inf' is not one of ['inf']"),
    "statefn-unknown-name": (
        {"type": "statefn", "labels": ["a", "b"],
         "values": [0.0, "infinity"]}, io.statefn_from_doc,
        "invalid statefn document: 'infinity' is not one of ['inf']"),
    "statefn-true": (
        {"type": "statefn", "labels": ["a", "b"], "values": [True, 0.0]},
        io.statefn_from_doc,
        "invalid statefn document: True is not valid under any of the "
        "given schemas"),
    "statefn-label-count": (
        {"type": "statefn", "labels": ["a", "b"],
         "values": [0.0, 1.0, "inf"], "extended": True},
        io.statefn_from_doc, "expected 2 values, got (3,)"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_message(self, case):
        doc, load, message = MALFORMED[case]
        with pytest.raises(ValueError) as exc:
            load(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", MALFORMED)
    def test_message_from_file(self, case, tmp_path):
        doc, load, message = MALFORMED[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load(io.load_document(path))
        assert str(exc.value) == message

    def test_named_non_finite_values_load(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(
            {"type": "statefn", "labels": ["a", "b", "c"],
             "values": ["inf", 1, 2.5], "extended": True}))
        f = io.statefn_from_doc(io.load_document(path, "statefn"))
        assert f.values.tolist() == [np.inf, 1.0, 2.5]
        # no state function holds nan or -inf, so no document names them
        for name in ("nan", "-inf"):
            with pytest.raises(ValueError, match=f"'{name}' is not one of"):
                io.validate_document({"type": "statefn", "labels": ["a", "b"],
                                      "values": [name, 0.0]})

    def test_boolean_entries_are_not_read_as_numbers(self):
        # numpy would read the row [0.0, True] as [0.0, 1.0], a stochastic
        # row; the schema's number type excludes JSON booleans
        doc = _kernel_doc([[0.0, True], [0.5, 0.5]])
        with pytest.raises(ValueError, match="True is not of type"):
            io.validate_document(doc)
        assert np.array(doc["rows"], dtype=float)[0].tolist() == [0.0, 1.0]


class TestJsonable:
    @pytest.mark.parametrize("array", [
        np.array([0.25, -0.0, 1e300]),
        np.array([[0.5, 0.5], [1.0, 0.0]]),
        np.array([0.1, 1 / 3], dtype=np.float32),
        np.array([3, -7], dtype=np.int64),
        np.array([2, 5], dtype=np.uint8),
        np.array([True, False]),
        np.zeros((3, 0)),
        np.zeros(0),
        np.array([np.inf, 1.0, -np.inf, np.nan]),
        np.array([[1.0, np.nan], [np.inf, 2.0]]),
    ], ids=lambda a: f"{a.dtype}{a.shape}")
    def test_arrays_match_the_element_walk(self, array):
        def leaves(value):
            if isinstance(value, list):
                return [leaf for v in value for leaf in leaves(v)]
            return [value]

        walked = io.jsonable(array.astype(object))
        out = io.jsonable(array)
        assert json.dumps(out) == json.dumps(walked)
        assert list(map(type, leaves(out))) == list(map(type, leaves(walked)))
