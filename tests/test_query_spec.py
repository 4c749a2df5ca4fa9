"""Tests for the declarative query spec layer (repro.api.spec)."""

from __future__ import annotations

import json

import pytest

from repro.api.spec import OPS, Provenance, QuerySpec, WindowSpec
from repro.core.segmentation import BasicWindowPlan
from repro.exceptions import DataError, SegmentationError

PLAN = BasicWindowPlan(length=600, window_size=50)


def spec_for(op: str, **overrides) -> QuerySpec:
    """A minimal valid spec for each operation."""
    window = overrides.pop("window", WindowSpec(end=599, length=200))
    defaults = {
        "matrix": {},
        "network": {"theta": 0.5},
        "top_k": {"k": 5},
        "anticorrelated": {"k": 5},
        "neighbors": {"node": "stn000", "theta": 0.5},
        "pairs_in_range": {"low": 0.2, "high": 0.4},
        "degree": {"theta": 0.5},
        "diff_network": {
            "baseline": WindowSpec(end=399, length=200),
            "theta": 0.5,
        },
        "subscribe": {"theta": 0.5},
    }[op]
    defaults.update(overrides)
    return QuerySpec(op=op, window=window, **defaults)


class TestWindowSpec:
    def test_end_length_resolves(self):
        window = WindowSpec(end=599, length=200).resolve(PLAN)
        assert (window.end, window.length) == (599, 200)

    def test_span_resolves_to_same_window(self):
        a = WindowSpec(end=599, length=200).resolve(PLAN)
        b = WindowSpec(start=400, stop=600).resolve(PLAN)
        assert a == b

    def test_window_range_resolves_aligned(self):
        window = WindowSpec(first_window=8, n_windows=4).resolve(PLAN)
        assert (window.start, window.stop) == (400, 600)

    def test_exactly_one_form_required(self):
        with pytest.raises(DataError):
            WindowSpec()
        with pytest.raises(DataError):
            WindowSpec(end=599, length=200, start=400, stop=600)
        with pytest.raises(DataError):
            WindowSpec(end=599)  # half a form
        with pytest.raises(DataError):
            WindowSpec(end=599, n_windows=4)  # mixed forms

    def test_rejects_non_integers(self):
        with pytest.raises(DataError):
            WindowSpec(end=599.5, length=200)
        with pytest.raises(DataError):
            WindowSpec(end=True, length=200)

    def test_rejects_empty_span(self):
        with pytest.raises(DataError):
            WindowSpec(start=400, stop=400)
        with pytest.raises(DataError):
            WindowSpec(start=-1, stop=100)

    def test_out_of_plan_raises_at_resolve(self):
        spec = WindowSpec(first_window=10, n_windows=4)
        with pytest.raises(SegmentationError):
            spec.resolve(PLAN)

    def test_round_trip(self):
        for window in (
            WindowSpec(end=599, length=200),
            WindowSpec(start=0, stop=50),
            WindowSpec(first_window=0, n_windows=12),
        ):
            assert WindowSpec.from_dict(window.to_dict()) == window

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(DataError):
            WindowSpec.from_dict({"end": 599, "length": 200, "frob": 1})

    def test_hashable(self):
        assert len({WindowSpec(end=599, length=200),
                    WindowSpec(end=599, length=200)}) == 1


class TestQuerySpecValidation:
    @pytest.mark.parametrize("op", OPS)
    def test_minimal_spec_valid(self, op):
        assert spec_for(op).op == op

    def test_unknown_op(self):
        with pytest.raises(DataError):
            QuerySpec(op="frobnicate", window=WindowSpec(end=599, length=200))

    @pytest.mark.parametrize(
        "op,missing",
        [
            ("network", "theta"),
            ("top_k", "k"),
            ("anticorrelated", "k"),
            ("neighbors", "node"),
            ("neighbors", "theta"),
            ("pairs_in_range", "low"),
            ("degree", "theta"),
            ("diff_network", "baseline"),
            ("diff_network", "theta"),
        ],
    )
    def test_required_fields(self, op, missing):
        with pytest.raises(DataError, match=f"requires {missing}"):
            spec_for(op, **{missing: None})

    @pytest.mark.parametrize(
        "op,extra",
        [
            ("matrix", {"theta": 0.5}),
            ("network", {"k": 3}),
            ("top_k", {"theta": 0.5}),
            ("degree", {"baseline": WindowSpec(end=399, length=200)}),
        ],
    )
    def test_irrelevant_fields_rejected(self, op, extra):
        with pytest.raises(DataError, match="does not accept"):
            spec_for(op, **extra)

    def test_theta_accepts_any_finite_value(self):
        # Out-of-[-1, 1] thresholds stay legal (empty/complete networks);
        # threshold sweeps and the classic engine paths rely on that.
        assert spec_for("network", theta=1.5).theta == 1.5
        assert spec_for("network", theta=-2).theta == -2.0
        assert spec_for("network", theta=-0.5).theta == -0.5
        with pytest.raises(DataError):
            spec_for("network", theta=float("nan"))
        with pytest.raises(DataError):
            spec_for("network", theta=float("inf"))
        with pytest.raises(DataError):
            spec_for("network", theta="0.5")

    def test_k_positive_integer(self):
        with pytest.raises(DataError):
            spec_for("top_k", k=0)
        with pytest.raises(DataError):
            spec_for("top_k", k=2.5)
        with pytest.raises(DataError):
            spec_for("top_k", k=True)

    def test_range_ordering(self):
        with pytest.raises(DataError):
            spec_for("pairs_in_range", low=0.5, high=0.2)

    def test_engine_validation(self):
        with pytest.raises(DataError):
            spec_for("matrix", engine="quantum")
        with pytest.raises(DataError):
            spec_for("matrix", method="eq5")  # method without approx engine
        with pytest.raises(DataError):
            spec_for("matrix", engine="approx", method="fft")
        assert spec_for("matrix", engine="approx", method="auto").method == "auto"

    def test_windows_property(self):
        assert len(spec_for("matrix").windows) == 1
        assert len(spec_for("diff_network").windows) == 2

    def test_frozen_and_hashable(self):
        spec = spec_for("network")
        with pytest.raises(AttributeError):
            spec.theta = 0.9
        assert len({spec, spec_for("network")}) == 1


class TestSerialization:
    @pytest.mark.parametrize("op", OPS)
    def test_dict_round_trip(self, op):
        spec = spec_for(op)
        assert QuerySpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("op", OPS)
    def test_json_round_trip(self, op):
        spec = spec_for(op)
        assert QuerySpec.from_json(spec.to_json()) == spec

    def test_json_is_one_line_and_plain(self):
        text = spec_for("diff_network").to_json()
        assert "\n" not in text
        payload = json.loads(text)
        assert payload["op"] == "diff_network"
        assert payload["baseline"] == {"end": 399, "length": 200}

    def test_none_fields_omitted(self):
        payload = spec_for("top_k").to_dict()
        assert "theta" not in payload
        assert "engine" not in payload  # default engine omitted

    def test_approx_engine_serialized(self):
        spec = spec_for("matrix", engine="approx", method="average")
        payload = spec.to_dict()
        assert payload["engine"] == "approx"
        assert payload["method"] == "average"
        assert QuerySpec.from_dict(payload) == spec

    def test_from_dict_rejects_unknown_keys(self):
        payload = spec_for("matrix").to_dict()
        payload["surprise"] = 1
        with pytest.raises(DataError, match="unknown query spec fields"):
            QuerySpec.from_dict(payload)

    def test_from_dict_requires_op_and_window(self):
        with pytest.raises(DataError):
            QuerySpec.from_dict({"op": "matrix"})
        with pytest.raises(DataError):
            QuerySpec.from_dict({"window": {"end": 1, "length": 1}})

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(DataError, match="invalid query spec JSON"):
            QuerySpec.from_json("{nope")


class TestProvenance:
    def test_to_dict_round_trips_fields(self):
        provenance = Provenance(backend="mmap", path="prefix", coalesced=True)
        payload = provenance.to_dict()
        assert payload["backend"] == "mmap"
        assert payload["path"] == "prefix"
        assert payload["coalesced"] is True
        assert Provenance(**payload) == provenance


class TestNumpyIntegers:
    """Window ends routinely come out of array arithmetic; numpy integral
    types must be accepted (and normalized) everywhere plain ints are."""

    def test_window_spec_accepts_and_normalizes_numpy_ints(self):
        import numpy as np

        window = WindowSpec(end=np.int64(599), length=np.int32(200))
        assert window == WindowSpec(end=599, length=200)
        assert type(window.end) is int and type(window.length) is int
        assert WindowSpec.from_dict(window.to_dict()) == window

    def test_engine_delegation_accepts_numpy_ints(self):
        import numpy as np

        from repro.core.exact import TsubasaHistorical

        rng = np.random.default_rng(0)
        engine = TsubasaHistorical(rng.normal(size=(4, 300)), window_size=50)
        a = engine.correlation_matrix((np.int64(299), np.int64(100))).values
        b = engine.correlation_matrix((299, 100)).values
        np.testing.assert_array_equal(a, b)

    def test_query_spec_normalizes_numpy_scalars(self):
        import numpy as np

        spec = spec_for("top_k", k=np.int64(5))
        assert type(spec.k) is int
        spec = spec_for("network", theta=np.float64(0.5))
        assert type(spec.theta) is float
        spec = spec_for("pairs_in_range", low=np.int64(0), high=np.float64(0.5))
        assert type(spec.low) is float and type(spec.high) is float
        assert QuerySpec.from_json(spec.to_json()) == spec
