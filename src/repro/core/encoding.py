"""Categorical-record ↔ transaction encodings (Section 3.1.2 and Section 5).

Two encodings from the paper live here:

* :func:`record_to_transaction` -- the ROCK encoding: for every
  attribute ``A`` with value ``v`` introduce an item ``A.v``; missing
  values contribute nothing.  The Jaccard similarity between two encoded
  records is then the paper's categorical similarity.
* :func:`dataset_to_boolean_matrix` -- the *traditional baseline*
  encoding of Section 5: every (attribute, value) pair becomes a 0/1
  boolean attribute and euclidean distance is applied to the resulting
  vectors.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

import numpy as np

from repro.data.records import MISSING, CategoricalDataset, CategoricalRecord
from repro.data.transactions import Transaction, TransactionDataset


def attribute_item(attribute: str, value: Any) -> str:
    """The item ``A.v`` the paper introduces for attribute ``A``, value ``v``."""
    return f"{attribute}.{value}"


def record_to_transaction(record: CategoricalRecord) -> Transaction:
    """Encode one categorical record as a transaction of ``A.v`` items.

    Missing values are simply ignored ("in the proposal, we simply
    ignore missing values", Section 3.1.2).
    """
    items = [attribute_item(a, v) for a, v in record.items()]
    return Transaction(items, tid=record.rid)


def dataset_to_transactions(dataset: CategoricalDataset) -> TransactionDataset:
    """Encode every record of a categorical dataset as a transaction.

    The vocabulary is the union of all ``A.v`` items, so downstream
    indicator-matrix operations see a consistent column layout.
    """
    return TransactionDataset([record_to_transaction(r) for r in dataset])


def transaction_csr(dataset: TransactionDataset) -> tuple[np.ndarray, np.ndarray]:
    """Each transaction's item columns as int64 CSR ``(indptr, indices)``.

    ``indices[indptr[i]:indptr[i + 1]]`` are the ascending columns of
    row ``i`` of :meth:`TransactionDataset.indicator_matrix` -- the
    sparse form of that matrix, built without the dense
    ``n x vocabulary`` intermediate.
    """
    n = len(dataset)
    item_index = dataset.item_index
    lens = [len(txn) for txn in dataset]
    codes = np.fromiter(
        (item_index(item) for txn in dataset for item in txn.items),
        dtype=np.int64, count=sum(lens),
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    # sort the codes within each row with one global stable argsort of
    # the combined (row, code) key instead of n tiny per-row sorts
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    order = np.argsort(rows * max(dataset.n_items, 1) + codes, kind="stable")
    return indptr, codes[order]


def dataset_to_boolean_matrix(
    dataset: CategoricalDataset,
) -> tuple[np.ndarray, list[str]]:
    """The Section-5 boolean 0/1 expansion used by the traditional baseline.

    For every categorical attribute a new boolean attribute is defined
    for every value in its domain; the new attribute is 1 iff the
    record's value equals that value.  Missing values expand to all-zero
    columns for that attribute (there is no paper-sanctioned imputation;
    indeed the paper *could not run* the traditional algorithm on the
    missing-value-heavy mutual-funds data).

    Returns the float matrix and the list of ``A.v`` column names.
    """
    columns: list[tuple[str, Any]] = []
    for attribute in dataset.schema:
        for value in dataset.domain(attribute):
            columns.append((attribute, value))
    column_index = {col: j for j, col in enumerate(columns)}
    matrix = np.zeros((len(dataset), len(columns)), dtype=np.float64)
    for i, record in enumerate(dataset):
        for attribute, value in record.items():
            matrix[i, column_index[(attribute, value)]] = 1.0
    names = [attribute_item(a, v) for a, v in columns]
    return matrix, names


def restrict_to_shared_attributes(
    a: CategoricalRecord, b: CategoricalRecord
) -> tuple[frozenset[Hashable], frozenset[Hashable]]:
    """The per-pair encoding for missing values (Section 3.1.2, time-series).

    "For a pair of records, the transaction for each record only
    contains items that correspond to attributes for which values are
    not missing in *either* record."  Each record thus maps to a
    different item set depending on its comparison partner; this
    function returns the pair of item sets for one comparison.
    """
    if a.schema != b.schema:
        raise ValueError("records must share a schema")
    items_a = []
    items_b = []
    for attribute, va, vb in zip(a.schema, a.values, b.values):
        if va is MISSING or vb is MISSING:
            continue
        items_a.append(attribute_item(attribute, va))
        items_b.append(attribute_item(attribute, vb))
    return frozenset(items_a), frozenset(items_b)
