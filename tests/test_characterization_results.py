"""Tests for characterization result containers."""

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)
from repro.characterization.results import (
    ModuleCharacterization,
    RowMeasurement,
)
from repro.errors import CharacterizationError


def measurement(bank=0, row=10, factor=1.0, n_pr=1, temp=80.0,
                nrh=8000, ber=0.001) -> RowMeasurement:
    return RowMeasurement(bank=bank, row=row, tras_factor=factor, n_pr=n_pr,
                          temperature_c=temp, wcdp="RS", nrh=nrh, ber=ber)


class TestRowMeasurement:
    def test_vulnerable(self):
        assert measurement(nrh=5000).vulnerable()
        assert not measurement(nrh=0).vulnerable()
        assert not measurement(nrh=None).vulnerable()

    def test_retention_failed(self):
        assert measurement(nrh=0).retention_failed()
        assert not measurement(nrh=5000).retention_failed()
        assert not measurement(nrh=None).retention_failed()


class TestModuleCharacterization:
    def test_at_filters(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, factor=1.0))
        result.add(measurement(row=1, factor=0.36))
        result.add(measurement(row=2, factor=0.36, n_pr=8))
        assert len(result.at(tras_factor=0.36)) == 2
        assert len(result.at(tras_factor=0.36, n_pr=8)) == 1

    def test_lowest_nrh(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, nrh=9000))
        result.add(measurement(row=2, nrh=7800))
        assert result.lowest_nrh(1.0) == 7800

    def test_lowest_nrh_retention_dominates(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, nrh=9000))
        result.add(measurement(row=2, nrh=0))
        assert result.lowest_nrh(1.0) == 0

    def test_lowest_nrh_all_invulnerable(self):
        result = ModuleCharacterization("H0", seed=1)
        result.add(measurement(row=1, nrh=None))
        assert result.lowest_nrh(1.0) is None

    def test_lowest_nrh_missing_point_raises(self):
        result = ModuleCharacterization("S6", seed=1)
        with pytest.raises(CharacterizationError):
            result.lowest_nrh(0.45)

    def test_normalized_nrh(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, factor=1.0, nrh=10_000))
        result.add(measurement(row=1, factor=0.36, nrh=8_000))
        values = result.normalized_nrh(0.36)
        assert values == [pytest.approx(0.8)]

    def test_normalized_ber(self):
        result = ModuleCharacterization("S6", seed=1)
        result.add(measurement(row=1, factor=1.0, ber=0.001))
        result.add(measurement(row=1, factor=0.36, ber=0.004))
        assert result.normalized_ber(0.36) == [pytest.approx(4.0)]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.integers(0, 3),
        st.sampled_from([1.0, 1.0 + 5e-10, 0.36, 0.36 - 8e-10,
                         0.36 + 2e-9, 0.27, 0.81]),
        st.sampled_from([1, 2]),
        st.none() | st.integers(0, 30),
        st.sampled_from([0.0, 0.25, 0.5])), max_size=40),
        n_pr=st.sampled_from([1, 2]))
    def test_normalized_by_factor_matches_per_factor_scans(self, rows, n_pr):
        """One scan, the same values (and order) as scanning ``at()`` per
        factor, including rows within at()'s 1e-9 tolerance of a factor."""
        result = ModuleCharacterization("S6", seed=1)
        for row, factor, pr, nrh, ber in rows:
            result.add(measurement(row=row, factor=factor, n_pr=pr,
                                   nrh=nrh, ber=ber))
        factors = (1.0, 0.36, 0.36 + 1e-9, 0.27, 0.45)
        for metric in ("nrh", "ber"):
            value = ((lambda m: m.nrh or 0) if metric == "nrh"
                     else (lambda m: m.ber))
            keep = ((lambda m: m.vulnerable()) if metric == "nrh"
                    else (lambda m: m.ber > 0))
            baseline = {(m.bank, m.row): value(m)
                        for m in result.at(tras_factor=1.0, n_pr=1)
                        if keep(m)}
            expected = {f: [value(m) / baseline[(m.bank, m.row)]
                            for m in result.at(tras_factor=f, n_pr=n_pr)
                            if baseline.get((m.bank, m.row))]
                        for f in factors}
            assert result.normalized_by_factor(metric, factors,
                                               n_pr) == expected

    def test_json_round_trip(self, tmp_path):
        result = ModuleCharacterization("S6", seed=42)
        result.add(measurement(row=1, nrh=None))
        result.add(measurement(row=2, factor=0.36, nrh=0, ber=0.5))
        path = tmp_path / "s6.json"
        result.save(path)
        loaded = ModuleCharacterization.load(path)
        assert loaded.module_id == "S6"
        assert loaded.seed == 42
        assert loaded.measurements == result.measurements


# ----------------------------------------------------------------------
# result-file codec: to_json must render exactly what json used to
# ----------------------------------------------------------------------
def reference_json(result: ModuleCharacterization) -> str:
    """The encoder ``to_json`` replaced, kept as its oracle."""
    return json.dumps({"module_id": result.module_id, "seed": result.seed,
                       "model_digest": result.model_digest,
                       "measurements": [asdict(m)
                                        for m in result.measurements]},
                      indent=1)


def encode_both(result: ModuleCharacterization):
    """(reference, to_json) outcomes: the text, or the exception's type
    and message."""
    outcomes = []
    for encode in (reference_json, ModuleCharacterization.to_json):
        try:
            outcomes.append(encode(result))
        except (TypeError, ValueError) as error:
            outcomes.append((type(error), str(error)))
    return outcomes


_EDGE_FLOATS = st.sampled_from([
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310,
    1.7976931348623157e308, 1e300, -1e300, math.nan, math.inf, -math.inf,
    0.1, 1 / 3])
_FLOATS = st.floats() | _EDGE_FLOATS | st.builds(np.float64, st.floats())
_INTS = st.integers() | st.booleans()
_TEXT = st.text() | st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f\x7f", "é", "😀", "\u2028", '"RS"\\'])
#: Any json value a mistyped field might hold, containers included.
_ANY = st.recursive(
    st.none() | _INTS | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


def _field(typical):
    """Mostly the field's own type (the template path), sometimes any
    json value (json's path)."""
    return st.one_of(typical, typical, typical, _ANY)


#: Rows whose fields all have their declared types; NaN and inf floats
#: are exact floats too, so they reach the template's finiteness check.
_EXACT_ROW = {"bank": st.integers(), "row": st.integers(),
              "tras_factor": _FLOATS, "n_pr": st.integers(),
              "temperature_c": _FLOATS, "wcdp": _TEXT,
              "nrh": st.none() | st.integers(), "ber": _FLOATS}


@st.composite
def _rows(draw) -> RowMeasurement:
    """An exact-typed row, or one with a single field mistyped."""
    fields = draw(st.fixed_dictionaries(_EXACT_ROW))
    if draw(st.booleans()):
        fields[draw(st.sampled_from(sorted(fields)))] = draw(_ANY)
    return RowMeasurement(**fields)


_ROW = dict(bank=0, row=1, tras_factor=1.0, n_pr=1, temperature_c=80.0,
            wcdp="RS", nrh=5, ber=0.1)


class TestResultCodec:
    @settings(max_examples=300, deadline=None)
    @given(module_id=_field(_TEXT), seed=_field(_INTS),
           model_digest=_field(st.none() | _TEXT),
           measurements=st.lists(_rows(), max_size=4))
    def test_to_json_matches_reference_encoder(self, module_id, seed,
                                               model_digest, measurements):
        result = ModuleCharacterization(module_id, seed,
                                        measurements=measurements,
                                        model_digest=model_digest)
        reference, fast = encode_both(result)
        assert fast == reference

    @pytest.mark.parametrize("value", [
        True, False, math.nan, math.inf, -math.inf, -0.0, 5e-324, None,
        np.float64(0.25), 10 ** 30, "\u00e9\"\n", [1, [2.5, "x"]],
        {"k": {"v": None}}], ids=repr)
    @pytest.mark.parametrize("where", sorted(_ROW) + [
        "module_id", "seed", "model_digest"])
    def test_edge_value_in_each_field(self, where, value):
        row, head = dict(_ROW), dict(module_id="S6", seed=2025,
                                     model_digest=None)
        (row if where in row else head)[where] = value
        result = ModuleCharacterization(
            **head, measurements=[RowMeasurement(**row)] * 2)
        reference, fast = encode_both(result)
        assert fast == reference

    def test_empty_measurements(self):
        result = ModuleCharacterization("S6", seed=1)
        assert result.to_json() == reference_json(result)
        assert result.to_json().endswith('"measurements": []\n}')

    @pytest.mark.parametrize("where", ["bank", "ber", "nrh", "seed",
                                       "module_id", "model_digest"])
    @pytest.mark.parametrize("value", [np.int64(3), np.float32(0.5)])
    def test_numpy_scalar_raises_same_type_error(self, where, value):
        row, head = dict(_ROW), dict(module_id="S6", seed=2025,
                                     model_digest=None)
        (row if where in row else head)[where] = value
        result = ModuleCharacterization(
            **head, measurements=[RowMeasurement(**row)])
        reference, fast = encode_both(result)
        assert reference[0] is TypeError
        assert fast == reference

    @pytest.mark.parametrize("rows, head, error", [
        ([{}], {"seed": 10 ** 5000}, ValueError),
        ([{"bank": 10 ** 5000}], {}, ValueError),
        ([{"nrh": 10 ** 5000}], {}, ValueError),
        ([{"bank": 10 ** 5000}], {"seed": np.int64(3)}, TypeError),
        ([{"bank": 10 ** 5000}], {"model_digest": np.float32(0.5)},
         TypeError),
        ([{}], {"seed": 10 ** 5000, "model_digest": np.int64(3)},
         ValueError),
        ([{"ber": np.float32(0.5)}, {"bank": 10 ** 5000}], {}, TypeError),
        ([{"bank": 10 ** 5000}, {"ber": np.float32(0.5)}], {}, ValueError),
    ], ids=["seed", "bank", "nrh", "numpy-seed-first", "numpy-digest-first",
            "seed-before-numpy-digest", "numpy-row-first", "big-row-first"])
    def test_oversized_int_raises_like_json(self, rows, head, error):
        """An int past the str-conversion limit raises json's ValueError,
        unless a value json writes earlier raises first."""
        result = ModuleCharacterization(
            **{"module_id": "S6", "seed": 2025, "model_digest": None,
               **head},
            measurements=[RowMeasurement(**{**_ROW, **row}) for row in rows])
        reference, fast = encode_both(result)
        assert reference[0] is error
        assert fast == reference

    def test_row_subclass_keeps_its_extra_field(self):
        @dataclass(frozen=True)
        class TaggedRow(RowMeasurement):
            tag: str = "x"

        result = ModuleCharacterization("S6", seed=1, measurements=[
            RowMeasurement(**_ROW), TaggedRow(**_ROW)])
        assert result.to_json() == reference_json(result)
        assert '"tag": "x"' in result.to_json()

    def test_non_dataclass_row_raises_like_asdict(self):
        result = ModuleCharacterization("S6", seed=1, measurements=[{}])
        reference, fast = encode_both(result)
        assert reference[0] is TypeError
        assert fast == reference


class TestFromJsonRejects:
    @pytest.mark.parametrize("payload", [
        {"seed": 1, "measurements": []},  # missing top-level key
        {"module_id": "S6", "seed": 1, "measurements": [
            {k: v for k, v in _ROW.items() if k != "ber"}]},
        {"module_id": "S6", "seed": 1, "measurements": [
            {**_ROW, "extra": 1}]},
        {"module_id": "S6", "seed": 1, "measurements": [5]},
        {"module_id": "S6", "seed": 1, "measurements": ["row"]},
        {"module_id": "S6", "seed": 1, "measurements": 5},
        {"module_id": "S6", "seed": 1, "measurements": None},
        {"module_id": 6, "seed": 1, "measurements": []},
    ], ids=["missing-key", "missing-row-key", "extra-row-key",
            "int-row", "str-row", "int-measurements", "null-measurements",
            "int-module-id"])
    def test_invalid_payload(self, payload):
        with pytest.raises(CharacterizationError):
            ModuleCharacterization.from_json(json.dumps(payload))

    def test_good_payload_loads(self):
        payload = {"module_id": "S6", "seed": 1, "measurements": [_ROW]}
        loaded = ModuleCharacterization.from_json(json.dumps(payload))
        assert loaded.measurements == [RowMeasurement(**_ROW)]


#: sha256 of each result file of a small default-seed campaign, pinned
#: from the json.dumps(indent=1) encoder: the result format is frozen.
#: M2 has rows with no bitflips (``"nrh": null``), S6 has none.
GOLDEN_CAMPAIGN_SHA256 = {
    "M2.json": "193581c0ee1826d66828a4d0e33b2665"
               "e3bfee9a8cff1f6944742c43769220b6",
    "S6.json": "4e2538fa6a40ad9094f6e5cdfa4a4420"
               "90dd4ae1b6b6d1baa78c6751e9ff3d32",
}


def test_campaign_result_files_are_byte_pinned(tmp_path):
    campaign = CharacterizationCampaign(
        tmp_path, CampaignConfig(module_ids=("M2", "S6"), per_region=8))
    campaign.run(jobs=1)
    digests = {name: hashlib.sha256(
        (campaign.results_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN_CAMPAIGN_SHA256}
    assert digests == GOLDEN_CAMPAIGN_SHA256
