"""Property tests: batched text featurization equals the per-document form.

``csr_from_token_docs`` and ``encode_batch`` process a whole batch in one
pass; each is checked here against a per-document reference written out
below, over generated batches that include empty documents, documents with
no vocabulary hits, repeated tokens, over-long documents, single-document
batches and the empty batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import PAD_INDEX, Vocabulary, csr_from_token_docs, encode_batch

#: Tokens the word set / vocabulary knows, and tokens it never sees.
KNOWN = ["alpha", "beta", "gamma", "delta", "eps"]
UNKNOWN = ["zzz", "qqq"]

tokens = st.sampled_from(KNOWN + UNKNOWN)
documents = st.lists(st.lists(tokens, max_size=12), max_size=6)
word_sets = st.lists(st.sampled_from(KNOWN), min_size=1, max_size=5, unique=True)


def reference_csr(docs, word_to_index):
    """The per-document ``np.unique`` construction."""
    indptr, indices, values = [0], [], []
    for doc in docs:
        hits = [word_to_index[t] for t in doc if t in word_to_index]
        uniq, counts = np.unique(np.asarray(hits, dtype=np.intp), return_counts=True)
        indices.extend(uniq.tolist())
        values.extend(counts.astype(np.float64).tolist())
        indptr.append(indptr[-1] + uniq.size)
    return np.asarray(indptr), np.asarray(indices), np.asarray(values, dtype=np.float64)


def reference_encode(docs, vocab, max_length, truncate):
    """Per-document lookup, truncation and right padding."""
    out = np.full((len(docs), max_length), PAD_INDEX, dtype=np.int64)
    for i, doc in enumerate(docs):
        ids = [vocab.index(t) for t in doc]
        if len(ids) > max_length:
            ids = ids[:max_length] if truncate == "tail" else ids[-max_length:]
        out[i, : len(ids)] = ids
    return out


@given(documents, word_sets)
@settings(max_examples=200, deadline=None)
def test_csr_matches_per_document_unique(docs, words):
    word_to_index = {w: i for i, w in enumerate(words)}
    csr = csr_from_token_docs(docs, word_to_index, len(words))
    indptr, indices, values = reference_csr(docs, word_to_index)
    assert csr.shape == (len(docs), len(words))
    np.testing.assert_array_equal(csr.indptr, indptr)
    np.testing.assert_array_equal(csr.indices, indices)
    np.testing.assert_array_equal(csr.values, values)
    assert csr.indices.dtype == np.intp and csr.values.dtype == np.float64


@given(documents, st.integers(1, 8), st.sampled_from(["tail", "head"]))
@settings(max_examples=200, deadline=None)
def test_encode_batch_matches_per_document_padding(docs, max_length, truncate):
    vocab = Vocabulary.build([KNOWN[:3]])
    got = encode_batch(docs, vocab, max_length, truncate=truncate)
    np.testing.assert_array_equal(got, reference_encode(docs, vocab, max_length, truncate))
    assert got.dtype == np.int64


def test_named_edge_cases():
    """The cases the generators must reach, pinned explicitly."""
    vocab = Vocabulary.build([KNOWN[:3]])
    word_to_index = {"alpha": 0, "gamma": 1}
    cases = [
        [],                                            # empty batch
        [[]],                                          # n = 1, empty document
        [["zzz", "qqq"]],                              # n = 1, no hits
        [["alpha", "alpha", "gamma", "alpha"], [], ["qqq"]],  # repeats
        [["beta"] * 20, ["alpha", "zzz"] * 7],         # longer than max_length
    ]
    for docs in cases:
        csr = csr_from_token_docs(docs, word_to_index, 2)
        for got, want in zip(
            (csr.indptr, csr.indices, csr.values), reference_csr(docs, word_to_index)
        ):
            np.testing.assert_array_equal(got, want)
        for truncate in ("tail", "head"):
            np.testing.assert_array_equal(
                encode_batch(docs, vocab, 5, truncate=truncate),
                reference_encode(docs, vocab, 5, truncate),
            )
