"""Machine-readable report emission: rational strings, envelopes, tables.

Every number that is not an integer travels as an exact "p/q" string; no
float ever reaches an output stream. JSON serialization is deterministic
(sorted keys, fixed indentation) so identical inputs under the same tool
version produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable, Mapping, Optional, Union

from . import __version__
from .configs import PeriodicConfiguration, make_config
from .lattice import Record, exact_site


def frac_str(x: Union[int, Fraction]) -> str:
    """Lowest-terms "p/q" rendering; the denominator is always written."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def jsonable(value: Any) -> Any:
    """Recursive conversion to JSON-ready data; rationals become "p/q"."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in seq]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


class ReportEnvelope(Record):
    """Wrapper around one command's results.

    command echoes the argv that produced the report, inputs the parsed
    parameters, results the module-specific payload. body() adds the
    package version and the provenance, always "computed": every figure
    is evaluated on the spot by enumeration or algebra, none is read off
    a frozen table.
    """

    command: tuple[str, ...]
    inputs: Mapping[str, Any]
    results: Mapping[str, Any]

    def body(self) -> dict[str, Any]:
        return {
            "command": list(self.command),
            "version": __version__,
            "provenance": "computed",
            "inputs": jsonable(self.inputs),
            "results": jsonable(self.results),
        }

    def to_json(self) -> str:
        return json.dumps(self.body(), sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def to_text(self) -> str:
        lines = [f"# {' '.join(self.command)}"]
        lines.extend(_text_lines(jsonable(self.results), ""))
        return "\n".join(lines) + "\n"


def _text_lines(value: Any, prefix: str) -> list[str]:
    if isinstance(value, dict):
        out: list[str] = []
        for k in sorted(value):
            v = value[k]
            name = f"{prefix}{k}" if not prefix else f"{prefix}.{k}"
            if isinstance(v, (dict, list)):
                out.extend(_text_lines(v, name))
            else:
                out.append(f"{name} = {v}")
        return out
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{prefix} = {' '.join(str(v) for v in value)}"]
        out = []
        for i, v in enumerate(value):
            out.extend(_text_lines(v, f"{prefix}[{i}]"))
        return out
    return [f"{prefix} = {value}"]


# --- configuration interchange ---------------------------------------------------


def config_payload(pc: PeriodicConfiguration, d2: Optional[int] = None) -> dict[str, Any]:
    """The interchange form of a periodic configuration."""
    return {
        "basis": [list(row) for row in pc.basis],
        "offsets": [list(o) for o in pc.offsets],
        "d2": pc.context_d2 if d2 is None else d2,
    }


def parse_config(
    data: Mapping[str, Any], d2: Optional[int] = None, *, hard_core: bool = True
) -> PeriodicConfiguration:
    """Rebuild a configuration from its interchange form.

    Accepts either the bare payload or a full report envelope whose
    results carry one (so a `pc build` output file can be fed back in).
    The hard-core rule of d2 (or of the file's own d2) is enforced unless
    hard_core is false; then the configuration carries no threshold, so
    an inadmissible one loads and can be reported as such.
    """
    if "results" in data and "basis" not in data:
        inner = data["results"]
        if not isinstance(inner, Mapping) or "basis" not in inner:
            raise ValueError("envelope results do not contain a configuration")
        data = inner
    if "basis" not in data or "offsets" not in data:
        raise ValueError("malformed configuration payload: needs basis and offsets")
    basis, offsets, ctx = data["basis"], data["offsets"], data.get("d2")
    if not isinstance(basis, (list, tuple)) or len(basis) != 3:
        raise ValueError("basis must be three rows of three integers")
    if not isinstance(offsets, (list, tuple)):
        raise ValueError("offsets must be an array of integer triples")
    if ctx is not None:
        _json_int(ctx, "d2")
    if d2 is None:
        d2 = ctx
    return make_config(
        [_int_triple(row, "basis row") for row in basis],
        [_int_triple(o, "offset") for o in offsets],
        d2 if hard_core else None,
    )


def _json_int(value: Any, what: str) -> int:
    """A JSON integer taken as is; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _int_triple(entry: Any, what: str) -> tuple[int, int, int]:
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise ValueError(f"each {what} must be a 3-element integer array, got {entry!r}")
    return exact_site(entry, what)


def load_config_file(
    path: str, d2: Optional[int] = None, *, hard_core: bool = True
) -> PeriodicConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, Mapping):
        raise ValueError("configuration file must hold a JSON object")
    return parse_config(data, d2, hard_core=hard_core)


def parse_site_list(data: Any) -> list[tuple[int, int, int]]:
    """Site lists arrive as [[x,y,z], ...] or wrapped in {"sites": ...}."""
    if isinstance(data, Mapping):
        data = data.get("sites")
    if not isinstance(data, (list, tuple)):
        raise ValueError('expected a JSON array of sites or {"sites": [...]}')
    return [_int_triple(entry, "site") for entry in data]


def load_site_file(path: str) -> list[tuple[int, int, int]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_site_list(json.load(fh))


# --- CSV ---------------------------------------------------------------------------

SUBLATTICE_CSV_HEADER = "b11,b12,b13,b21,b22,b23,b31,b32,b33,class_id,stabilizer_order"


def sublattice_csv_rows(sublattices: Iterable[Mapping[str, Any]]) -> list[str]:
    """One CSV line per `sublat enumerate` sublattice entry: the nine basis
    integers, the class id and the stabilizer order."""
    rows = [SUBLATTICE_CSV_HEADER]
    for entry in sublattices:
        cells = [*(x for row in entry["basis"] for x in row), entry["class_id"], entry["stabilizer_order"]]
        rows.append(",".join(map(str, cells)))
    return rows
