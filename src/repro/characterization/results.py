"""Result containers for characterization runs, with JSON round-tripping."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter
from pathlib import Path

from repro.errors import CharacterizationError
from repro.runtime.persist import write_atomic


@dataclass(frozen=True)
class RowMeasurement:
    """One row's measured RowHammer characteristics at one test point.

    ``nrh`` semantics follow the paper: ``0`` means the row exhibited
    bitflips without hammering (retention failure); ``None`` means no
    bitflips were observed up to the search bound (the row — or whole module,
    e.g. H0 — is not vulnerable at this test point).
    """

    bank: int
    row: int
    tras_factor: float
    n_pr: int
    temperature_c: float
    wcdp: str  #: short name of the worst-case data pattern
    nrh: int | None
    ber: float

    def vulnerable(self) -> bool:
        return self.nrh is not None and self.nrh > 0

    def retention_failed(self) -> bool:
        return self.nrh == 0


@dataclass
class ModuleCharacterization:
    """All measurements taken on one module in one campaign."""

    module_id: str
    seed: int
    measurements: list[RowMeasurement] = field(default_factory=list)
    #: Fingerprint of the device-model calibration that produced these
    #: measurements (:func:`repro.validation.model_digest`); ``None`` for
    #: results persisted before digests existed.  Campaign resumes compare
    #: it against the live model to detect silent model drift.
    model_digest: str | None = None

    def add(self, measurement: RowMeasurement) -> None:
        self.measurements.append(measurement)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def at(self, *, tras_factor: float | None = None, n_pr: int | None = None,
           temperature_c: float | None = None) -> list[RowMeasurement]:
        """Measurements matching the given test point (None = any)."""
        out = []
        for m in self.measurements:
            if tras_factor is not None and abs(m.tras_factor - tras_factor) > 1e-9:
                continue
            if n_pr is not None and m.n_pr != n_pr:
                continue
            if temperature_c is not None and abs(m.temperature_c - temperature_c) > 0.75:
                continue
            out.append(m)
        return out

    def lowest_nrh(self, tras_factor: float, n_pr: int = 1) -> int | None:
        """Lowest measured N_RH across rows at a test point (Table 3 cell).

        Returns 0 if any row shows retention bitflips, None if no row shows
        any bitflips at all.
        """
        rows = self.at(tras_factor=tras_factor, n_pr=n_pr)
        if not rows:
            raise CharacterizationError(
                f"no measurements at factor={tras_factor}, n_pr={n_pr}")
        if any(m.retention_failed() for m in rows):
            return 0
        values = [m.nrh for m in rows if m.nrh is not None]
        if not values:
            return None
        return min(values)

    def normalized_nrh(self, tras_factor: float, n_pr: int = 1) -> list[float]:
        """Per-row N_RH at a test point normalized to the same row's N_RH at
        nominal latency with a single restoration (Fig. 6 data points)."""
        return self.normalized_by_factor("nrh", (tras_factor,),
                                         n_pr)[tras_factor]

    def wcdp_histogram(self, tras_factor: float = 1.00,
                       n_pr: int = 1) -> dict[str, int]:
        """How often each data pattern was the worst case (§4.3).

        The paper identifies the worst-case data pattern per row before
        measuring it; this histogram summarizes which patterns dominate.
        """
        histogram: dict[str, int] = {}
        for m in self.at(tras_factor=tras_factor, n_pr=n_pr):
            histogram[m.wcdp] = histogram.get(m.wcdp, 0) + 1
        return histogram

    def normalized_ber(self, tras_factor: float, n_pr: int = 1) -> list[float]:
        """Per-row BER normalized to nominal latency (Fig. 9 data points)."""
        return self.normalized_by_factor("ber", (tras_factor,),
                                         n_pr)[tras_factor]

    def normalized_by_factor(self, metric: str, tras_factors, n_pr: int = 1,
                             ) -> dict[float, list[float]]:
        """``{factor: normalized_nrh(factor)}`` (``metric="nrh"``) or
        ``normalized_ber`` for every factor: one scan for the nominal
        baseline, one to bucket rows by factor.

        Rows match a factor as in :meth:`at`, so a row can feed more than
        one factor, and each factor's values keep measurement order.
        """
        nrh = metric == "nrh"
        baseline = {}
        for m in self.measurements:
            if m.n_pr == 1 and not abs(m.tras_factor - 1.00) > 1e-9 \
                    and (m.vulnerable() if nrh else m.ber > 0):
                baseline[(m.bank, m.row)] = m.nrh if nrh else m.ber
        out: dict[float, list[float]] = {f: [] for f in tras_factors}
        for m in self.measurements:
            if m.n_pr != n_pr:
                continue
            base = baseline.get((m.bank, m.row))
            if not base:
                continue
            value = ((m.nrh or 0) if nrh else m.ber) / base
            for f, values in out.items():
                if not abs(m.tras_factor - f) > 1e-9:
                    values.append(value)
        return out

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """The result file text: exactly what ``json.dumps(payload,
        indent=1)`` renders for ``payload = {"module_id", "seed",
        "model_digest", "measurements": [asdict(m), ...]}``.

        ``json`` skips its C encoder whenever ``indent`` is set, and
        ``asdict`` deep-copies every row, so this emits the text from a
        fixed per-row template instead (see :func:`_encode_row`).  The
        three head values, and rows outside the template's exact types,
        take ``json``'s own path, so every input renders — or raises — as
        ``json`` would.
        """
        # Rows first: asdict() failures precede json's, as they used to.
        rows = [_encode_row(m) for m in self.measurements]
        head = (f'{{\n "module_id": {_dumps(self.module_id, " ")},\n'
                f' "seed": {_dumps(self.seed, " ")},\n'
                f' "model_digest": {_dumps(self.model_digest, " ")},\n'
                f' "measurements": ')
        if not rows:
            return head + "[]\n}"
        body = ",\n".join(row if type(row) is str else "  " + _dumps(row, "  ")
                          for row in rows)
        return head + "[\n" + body + "\n ]\n}"

    @classmethod
    def from_json(cls, text: str) -> "ModuleCharacterization":
        """Parse and validate a persisted characterization.

        Truncated or schema-invalid payloads (e.g. a file cut short by a
        crash mid-write before saves were atomic) raise
        :class:`~repro.errors.CharacterizationError` so callers can
        quarantine and re-run instead of dying on a raw ``KeyError`` /
        ``JSONDecodeError``.
        """
        try:
            payload = json.loads(text)
            result = cls(module_id=payload["module_id"], seed=payload["seed"],
                         model_digest=payload.get("model_digest"))
            for raw in payload["measurements"]:
                result.add(RowMeasurement(**raw))
        except (ValueError, KeyError, TypeError) as error:
            raise CharacterizationError(
                f"invalid characterization payload: {error}") from error
        if not isinstance(result.module_id, str):
            raise CharacterizationError(
                f"invalid module_id: {result.module_id!r}")
        return result

    def save(self, path: str | Path, *, durable: bool = False) -> None:
        """Persist atomically; ``durable`` fsyncs through to stable storage.

        Campaign workers save durably — a module characterization is the
        most expensive artifact in the repo, and a power loss must not
        resurface an empty file that existence-based resume then trusts.
        """
        write_atomic(path, self.to_json(), durable=durable)

    @classmethod
    def load(cls, path: str | Path) -> "ModuleCharacterization":
        return cls.from_json(Path(path).read_text())


# ----------------------------------------------------------------------
# the result-file encoder behind ModuleCharacterization.to_json
# ----------------------------------------------------------------------
_row_values = attrgetter("bank", "row", "tras_factor", "n_pr",
                         "temperature_c", "wcdp", "nrh", "ber")


def _row_template(nrh_slot: str) -> str:
    return ('  {\n   "bank": %d,\n   "row": %d,\n   "tras_factor": %r,\n'
            '   "n_pr": %d,\n   "temperature_c": %r,\n   "wcdp": %s,\n'
            '   "nrh": ' + nrh_slot + ',\n   "ber": %r\n  }')


#: Exact field types -> row text, indented as json's ``indent=1`` puts a
#: row inside the measurements list.  ``%d``/``%r`` of an exact int/float
#: are ``int.__repr__``/``float.__repr__``, which is what json writes; the
#: ``%s`` slot takes the already-escaped ``wcdp``, and ``null%.0s``
#: swallows a ``None`` nrh.
_ROW_TEMPLATES = {
    (int, int, float, int, float, str, int, float): _row_template("%d"),
    (int, int, float, int, float, str, type(None), float):
        _row_template("null%.0s"),
}


def _encode_row(m) -> str | dict:
    """A row's file text, or — for anything the templates do not cover
    (NaN/inf, bools, other types, subclasses, ints too long to print) —
    ``asdict(m)`` for json to render."""
    if type(m) is RowMeasurement:
        values = _row_values(m)
        template = _ROW_TEMPLATES.get(tuple(map(type, values)))
        if template is not None:
            bank, row, tras_factor, n_pr, temperature_c, wcdp, nrh, ber = values
            if isfinite(tras_factor) and isfinite(temperature_c) \
                    and isfinite(ber):
                try:
                    return template % (bank, row, tras_factor, n_pr,
                                       temperature_c,
                                       encode_basestring_ascii(wcdp), nrh,
                                       ber)
                except ValueError:
                    # An int past the str-conversion digit limit: json
                    # raises the same error, after the values it writes
                    # first.
                    pass
    return asdict(m)


def _dumps(value, pad: str) -> str:
    """``json.dumps(value, indent=1)`` nested one level deeper per space of
    ``pad``.  Every newline in that text is structural (``ensure_ascii``
    escapes the ones inside strings), so shifting them is exact."""
    return json.dumps(value, indent=1).replace("\n", "\n" + pad)
