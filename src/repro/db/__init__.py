"""Relational substrate for the peer-to-peer database.

The paper assumes a single relation ``R`` horizontally partitioned over the
overlay nodes, each node holding a disjoint multiset of tuples whose values
change autonomously (Section II). This package provides:

* :mod:`repro.db.expression` — the arithmetic ``expression`` language that
  appears inside ``op(expression)`` aggregate queries;
* :mod:`repro.db.store` — the relation's float64 value columns and a
  per-node tuple store over them with O(1) insert, update, delete and
  uniform local sampling;
* :mod:`repro.db.relation` — the distributed relation: placement of tuples
  on nodes, churn integration, and exact (oracle) evaluation;
* :mod:`repro.db.aggregates` — AVG/SUM/COUNT semantics shared by the exact
  evaluator and the sample-based estimators.
"""

from repro.db.aggregates import (
    AggregateOp,
    ValueSpec,
    estimate_from_mean,
    exact_aggregate,
    tuple_values,
)
from repro.db.expression import Expression
from repro.db.predicate import Predicate
from repro.db.relation import P2PDatabase, Schema
from repro.db.store import Columns, LocalStore

__all__ = [
    "AggregateOp",
    "Columns",
    "Expression",
    "LocalStore",
    "P2PDatabase",
    "Predicate",
    "Schema",
    "ValueSpec",
    "estimate_from_mean",
    "exact_aggregate",
    "tuple_values",
]
