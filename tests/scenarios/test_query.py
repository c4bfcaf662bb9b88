"""``ResultsStore.query``'s predicates: each ``(field, op, value)`` is
compiled once per call, and the compiled filter selects exactly what the
record-by-record matcher it replaced selected, raising where it raised."""

from __future__ import annotations

import uuid
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scenarios import MemoryBackend, ResultsStore
from repro.scenarios.store import _PREDICATE_OPS


# --------------------------------------------------------------------------- #
# the record-by-record matcher query used before predicates were compiled,
# kept verbatim as the brute-force reference
# --------------------------------------------------------------------------- #
def _reference_resolve(record: dict[str, Any], field: str) -> str | None:
    if field in record:
        return field
    present = [
        f"{group}.{field}"
        for group in ("calibration", "solver", "params")
        if f"{group}.{field}" in record
    ]
    if len(present) > 1:
        raise ValueError(
            f"field {field!r} is ambiguous (matches {', '.join(present)}); "
            "use the dotted form"
        )
    return present[0] if present else None


def _reference_matches(record: dict[str, Any], field: str, op: str, value: Any) -> bool:
    key = _reference_resolve(record, field)
    if key is None:
        return False
    actual = record[key]
    if op == "==":
        return actual == value
    if op == "!=":
        return actual != value
    numeric = (
        isinstance(actual, (int, float))
        and not isinstance(actual, bool)
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
    )
    if not numeric and not (isinstance(actual, str) and isinstance(value, str)):
        return False
    if op == "<":
        return actual < value
    if op == "<=":
        return actual <= value
    if op == ">":
        return actual > value
    return actual >= value


def _brute_force(records, where, status):
    """The records ``query(where, status)`` should return, or ``ValueError``;
    ``=`` is ``==`` (the reference read it, as any unknown operator, as ``>=``)."""
    where = [(f, "==" if op == "=" else op, v) for f, op, v in where]
    try:
        hits = [
            rec
            for rec in records
            if (status is None or rec.get("status") == status)
            and all(_reference_matches(rec, f, op, v) for f, op, v in where)
        ]
    except ValueError:
        return ValueError
    return sorted(hits, key=lambda r: (r["created_at_unix"], r["spec_hash"]))


# --------------------------------------------------------------------------- #
# records and predicates
# --------------------------------------------------------------------------- #
#: a bare "a" is ambiguous in a record holding two of its dotted forms, as
#: is a bare "b"; a record may also hold "a" itself, which then wins
_RECORD_KEYS = ("a", "calibration.a", "solver.a", "params.a", "solver.b", "params.b")
_FIELDS = ("a", "b", "c", "calibration.a", "params.a", "solver.b", "status")
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([-0.5, 1.0, 1.5]),
    st.sampled_from(["", "a", "b", "completed"]),
)
_STATUS = st.sampled_from(["completed", "failed"])
_RECORDS = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(_RECORD_KEYS), _VALUES, max_size=4), _STATUS),
    max_size=8,
)
_WHERE = st.lists(
    st.tuples(st.sampled_from(_FIELDS), st.sampled_from(_PREDICATE_OPS), _VALUES),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS, where=_WHERE, status=st.one_of(st.none(), _STATUS))
@example(records=[({"params.a": True}, "completed")], where=[("a", "<", 2)], status=None)
@example(records=[({"solver.b": None}, "completed")], where=[("b", ">=", 0)], status=None)
@example(records=[({"params.a": 1.0}, "failed")], where=[("a", "=", 1)], status="failed")
@example(records=[({"a": "b", "params.a": 1}, "failed")], where=[("a", ">", "a")], status=None)
@example(
    records=[({"calibration.a": 1, "params.a": 1}, "completed")],
    where=[("a", "==", 1)],
    status=None,
)
def test_compiled_query_equals_the_brute_force_filter(records, where, status):
    name = f"{uuid.uuid4().hex[:12]}-query"
    store = ResultsStore.open(f"mem://{name}")
    try:
        log = [
            {**fields, "spec_hash": f"h{i:02d}", "status": state, "created_at_unix": float(i)}
            for i, (fields, state) in enumerate(records)
        ]
        for record in log:
            store.backend.append_commit(record)
        try:
            got = store.query(where=where, status=status)
        except ValueError:
            got = ValueError
        assert got == _brute_force(log, where, status)
    finally:
        MemoryBackend.drop(name)


def test_a_pre_parsed_equals_sign_is_equality_and_an_unknown_op_raises(store_url_for):
    store = ResultsStore.open(store_url_for("mem"))
    for i, states in enumerate((5, 7)):
        store.backend.append_commit(
            {
                "spec_hash": f"h{i}",
                "status": "completed",
                "params.num_states": states,
                "created_at_unix": float(i),
            }
        )
    assert [r["spec_hash"] for r in store.query(where=[("num_states", "=", 5)])] == ["h0"]
    assert store.query(where=["num_states=5"]) == store.query(where=[("num_states", "==", 5)])
    with pytest.raises(ValueError, match="unknown predicate operator '=>'"):
        store.query(where=[("num_states", "=>", 5)])
