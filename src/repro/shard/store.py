"""Memory-mapped transaction store: encode once, mmap everywhere.

The fused kernel ships its payload (a scorer holding the whole CSR
indicator matrix) through the pool initializer -- every worker
receives a pickled copy.  At sharded scale that copy *is* the
memory problem, so this module encodes a transaction database once
into an on-disk int32 CSR::

    <store>/store.json   format, n, n_items, nnz, vocabulary, checksums
    <store>/items.i32    item codes, row-major, ascending within a row
    <store>/indptr.i64   n+1 row offsets into items.i32

written chunk-at-a-time (the writer never holds more than
``chunk_rows`` encoded rows) and sha256-checksummed per artifact file,
mirroring the ``RockModel`` integrity scheme.  Workers then
``np.memmap`` the two arrays: the pool payload becomes a path and the
page cache shares one physical copy across every worker on the host.

:class:`StoreScorer` rebuilds the exact
:class:`~repro.core.neighbors.SparseTransactionScorer` state on top of
the memmaps -- same CSR values, same integer prefilter, same float64
similarity -- so the sharded adjacency is bit-identical to the fused
path's.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.transactions import Transaction, TransactionDataset

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "StoreIntegrityError",
    "StoreScorer",
    "TransactionStore",
]

STORE_FORMAT = "rock-shard-store"
STORE_VERSION = 1
META_NAME = "store.json"
ITEMS_NAME = "items.i32"
INDPTR_NAME = "indptr.i64"
DEFAULT_CHUNK_ROWS = 8192


class StoreIntegrityError(RuntimeError):
    """A store file is missing, malformed, or fails its checksum."""


def _sha256_hex(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


class _ChunkWriter:
    """Appends raw array bytes to a file while folding them into a sha256."""

    def __init__(self, path: Path) -> None:
        self._handle = path.open("wb")
        self._digest = hashlib.sha256()

    def append(self, array: np.ndarray) -> None:
        data = array.tobytes()
        self._handle.write(data)
        self._digest.update(data)

    def close(self) -> str:
        self._handle.close()
        return "sha256:" + self._digest.hexdigest()


def _encode_rows(
    rows: Iterable[Iterable[Any]],
    code_of: dict[Any, int],
    vocabulary: list[Any] | None,
) -> Iterator[np.ndarray]:
    """Yield one sorted int32 code array per row.

    When ``vocabulary`` is a list, unseen items extend it (first-seen
    coding); similarity over transactions is invariant to column order,
    so a store-local vocabulary yields the same neighbor graph as the
    dataset's own.
    """
    for row in rows:
        codes = []
        for item in row:
            code = code_of.get(item)
            if code is None:
                if vocabulary is None:
                    raise StoreIntegrityError(
                        f"item {item!r} missing from the fixed vocabulary"
                    )
                code = len(vocabulary)
                code_of[item] = code
                vocabulary.append(item)
            codes.append(code)
        yield np.sort(np.asarray(codes, dtype=np.int32))


class TransactionStore:
    """An on-disk int32 CSR encoding of a transaction database."""

    def __init__(
        self,
        path: Path,
        meta: dict[str, Any],
        indptr: np.ndarray,
        items: np.ndarray,
    ) -> None:
        self.path = Path(path)
        self.meta = meta
        self.indptr = indptr
        self.items = items
        self.vocabulary: list[Any] = list(meta["vocabulary"])

    # -- writing ---------------------------------------------------------

    @classmethod
    def write(
        cls,
        path: str | os.PathLike[str],
        transactions: Iterable[Any],
        vocabulary: Iterable[Any] | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "TransactionStore":
        """Encode ``transactions`` under directory ``path``.

        Accepts a :class:`TransactionDataset` (its vocabulary is
        reused), any iterable of item iterables, or an explicit
        ``vocabulary``.  Rows are encoded and flushed ``chunk_rows`` at
        a time, so the writer's footprint is bounded regardless of n.
        """
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        path = Path(path)
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)

        if vocabulary is not None:
            vocab: list[Any] | None = None
            fixed = list(vocabulary)
            code_of = {item: i for i, item in enumerate(fixed)}
            all_items = fixed
        elif isinstance(transactions, TransactionDataset):
            vocab = None
            all_items = list(transactions.vocabulary)
            code_of = {item: i for i, item in enumerate(all_items)}
        else:
            vocab = []
            all_items = vocab
            code_of = {}

        items_writer = _ChunkWriter(path / ITEMS_NAME)
        indptr_writer = _ChunkWriter(path / INDPTR_NAME)
        indptr_writer.append(np.zeros(1, dtype=np.int64))
        n_rows = 0
        nnz = 0
        chunk: list[np.ndarray] = []
        offsets: list[int] = []

        def flush() -> None:
            nonlocal chunk, offsets
            if chunk:
                items_writer.append(np.concatenate(chunk))
                indptr_writer.append(np.asarray(offsets, dtype=np.int64))
                chunk = []
                offsets = []

        try:
            for codes in _encode_rows(transactions, code_of, vocab):
                chunk.append(codes)
                n_rows += 1
                nnz += codes.shape[0]
                offsets.append(nnz)
                if len(chunk) >= chunk_rows:
                    flush()
            flush()
        finally:
            items_digest = items_writer.close()
            indptr_digest = indptr_writer.close()

        meta = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "n": n_rows,
            "n_items": len(all_items),
            "nnz": nnz,
            "vocabulary": _json_safe_vocabulary(all_items),
            "checksums": {
                ITEMS_NAME: items_digest,
                INDPTR_NAME: indptr_digest,
            },
        }
        tmp = path / (META_NAME + ".tmp")
        tmp.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path / META_NAME)
        return cls.open(path)

    @classmethod
    def from_transactions_file(
        cls,
        source: str | os.PathLike[str],
        path: str | os.PathLike[str],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "TransactionStore":
        """Encode a transactions text file (one basket per line).

        Streams through :func:`repro.data.io.iter_transactions`, so the
        source is never resident in RAM -- the entry point for fits
        over files that dwarf the memory budget.
        """
        from repro.data.io import iter_transactions

        return cls.write(
            path,
            (txn.items for txn in iter_transactions(source)),
            chunk_rows=chunk_rows,
        )

    # -- reading ---------------------------------------------------------

    @classmethod
    def open(
        cls, path: str | os.PathLike[str], verify: bool = False
    ) -> "TransactionStore":
        """Memory-map an existing store; ``verify=True`` re-checksums it.

        Verification reads every byte once, so the coordinator verifies
        a store a single time and workers open without it.
        """
        path = Path(path)
        meta_path = path / META_NAME
        if not meta_path.is_file():
            raise StoreIntegrityError(f"no {META_NAME} under {path}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreIntegrityError(f"malformed {meta_path}: {exc}") from exc
        if meta.get("format") != STORE_FORMAT:
            raise StoreIntegrityError(
                f"{meta_path} is not a {STORE_FORMAT} artifact"
            )
        if meta.get("version") != STORE_VERSION:
            raise StoreIntegrityError(
                f"unsupported store version {meta.get('version')!r}"
            )
        n = int(meta["n"])
        nnz = int(meta["nnz"])
        indptr_path = path / INDPTR_NAME
        items_path = path / ITEMS_NAME
        for file_path, expected in (
            (indptr_path, (n + 1) * 8),
            (items_path, nnz * 4),
        ):
            if not file_path.is_file():
                raise StoreIntegrityError(f"missing {file_path}")
            actual = file_path.stat().st_size
            if actual != expected:
                raise StoreIntegrityError(
                    f"{file_path} is {actual} bytes, expected {expected}"
                )
        indptr = np.memmap(indptr_path, dtype=np.int64, mode="r", shape=(n + 1,))
        items = np.memmap(items_path, dtype=np.int32, mode="r", shape=(nnz,))
        store = cls(path, meta, indptr, items)
        if verify:
            store.verify()
        return store

    def verify(self) -> None:
        """Re-hash both array files against the recorded checksums."""
        for name in (ITEMS_NAME, INDPTR_NAME):
            expected = self.meta["checksums"][name]
            actual = _sha256_hex(self.path / name)
            if actual != expected:
                raise StoreIntegrityError(
                    f"checksum mismatch for {self.path / name}: "
                    f"{actual} != {expected}"
                )

    # -- views -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.meta["n"])

    @property
    def n_items(self) -> int:
        return int(self.meta["n_items"])

    @property
    def nnz(self) -> int:
        return int(self.meta["nnz"])

    @property
    def checksum(self) -> str:
        """The items-file digest: the store's identity for fingerprints."""
        return str(self.meta["checksums"][ITEMS_NAME])

    def nbytes(self) -> int:
        return self.items.nbytes + self.indptr.nbytes

    def sizes(self) -> np.ndarray:
        return np.diff(np.asarray(self.indptr)).astype(np.int64)

    def row_codes(self, i: int) -> np.ndarray:
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return np.asarray(self.items[lo:hi])

    def row_items(self, i: int) -> list[Any]:
        return [self.vocabulary[code] for code in self.row_codes(i)]

    def subset_dataset(self, indices: Iterable[int]) -> TransactionDataset:
        """Decode selected rows into an in-RAM :class:`TransactionDataset`.

        The dataset keeps the *store's* vocabulary so indicator columns
        line up across subsets.
        """
        transactions = [
            Transaction(self.row_items(int(i)), tid=int(i)) for i in indices
        ]
        return TransactionDataset(transactions, vocabulary=self.vocabulary)

    def scorer(self, overlap: bool = False) -> "StoreScorer":
        return StoreScorer(self, overlap=overlap)


def _json_safe_vocabulary(items: list[Any]) -> list[Any]:
    for item in items:
        if not isinstance(item, (str, int, bool)):
            raise StoreIntegrityError(
                "store vocabularies must be JSON-scalar items "
                f"(str/int/bool); got {type(item).__name__}"
            )
    return list(items)


from repro.core.neighbors import SparseTransactionScorer  # noqa: E402


class StoreScorer(SparseTransactionScorer):
    """The sparse CSR scorer rebuilt over a store's memory-maps.

    Reconstructs exactly the fields
    :meth:`SparseTransactionScorer.neighbor_rows` consumes -- the int64
    CSR, transposed CSR, row sizes and global minimum size -- without
    ever materialising an indicator matrix, so the inherited kernel
    (integer prefilter + exact float64 similarity) reproduces the fused
    path's adjacency bit for bit.
    """

    def __init__(
        self, store: TransactionStore | str | os.PathLike[str], overlap: bool = False
    ) -> None:
        if not isinstance(store, TransactionStore):
            store = TransactionStore.open(store)
        self.store = store
        self._load_csr(
            np.asarray(store.indptr), np.asarray(store.items),
            max(store.n_items, 1), overlap,
        )
