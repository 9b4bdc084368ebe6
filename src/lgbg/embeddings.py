"""Initial node embeddings: loaded from a word-vector file or derived
deterministically from concept names when no file is supplied.

Embedding files are UTF-8 text read through `lgbg.schema.read_text`; a
missing file, bytes that are not UTF-8, a value that is not a finite number
and a line of the wrong length are input errors."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import EmbeddingError, ParseError
from .schema import read_text
from .streams import Vocabulary


def _hash_vector(name: str, dim: int, seed: int) -> np.ndarray:
    """Unit-norm vector that is a pure function of (concept name, seed)."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class EmbeddingTable:
    """Concept name -> fixed d-dimensional vector; not updated by training."""

    def __init__(self, names: list[str], vectors: np.ndarray, source: str):
        self.names = list(names)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.source = source  # "file" or "deterministic-fallback"
        self._index = {n: i for i, n in enumerate(self.names)}

    def index(self, name: str) -> int:
        if name not in self._index:
            raise EmbeddingError(f"no embedding for concept {name!r}")
        return self._index[name]

    def check_rows(self, vocab: Vocabulary) -> None:
        """Raise unless each concept of `vocab` is at its
        `Vocabulary.embedding_rows` row, the row that day graphs gather: a
        missing concept, or a table that orders them otherwise, is an input
        error rather than a gather of the wrong rows."""
        for name, row in vocab.embedding_rows.items():
            if self.index(name) != row:
                raise EmbeddingError(f"embedding table orders its concepts otherwise than "
                                     f"the vocabulary: {name!r} is at row "
                                     f"{self.index(name)}, not {row}")

    @classmethod
    def fallback(cls, vocab: Vocabulary, dim: int, seed: int) -> "EmbeddingTable":
        names = list(vocab.embedding_rows)
        vectors = np.stack([_hash_vector(n, dim, seed) for n in names])
        return cls(names, vectors, source="deterministic-fallback")

    @classmethod
    def from_file(cls, path, vocab: Vocabulary, dim: int, seed: int) -> "EmbeddingTable":
        """The fallback table with the vectors of `<name> v1 .. vd` lines of
        finite numbers; a vocabulary concept listed twice is an input error,
        and lines of other names are checked but not kept."""
        table = cls.fallback(vocab, dim, seed)
        loaded: set[str] = set()
        for lineno, line in enumerate(read_text(path, "embedding file").splitlines(),
                                      start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                vec = np.array([float(p) for p in parts[1:]])
            except ValueError as e:
                raise ParseError(f"bad embedding value: {e}", line=lineno) from e
            if vec.size != dim:
                raise ParseError(f"expected {dim} values, got {vec.size}", line=lineno)
            if not np.isfinite(vec).all():
                raise ParseError("embedding values must be finite", line=lineno)
            if parts[0] in loaded:
                raise ParseError(f"concept {parts[0]!r} is listed twice", line=lineno)
            if parts[0] in table._index:
                table.vectors[table._index[parts[0]]] = vec
                loaded.add(parts[0])
        return cls(table.names, table.vectors, source="file")
