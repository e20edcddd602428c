"""Helpers shared by several test modules."""

import tracemalloc

import numpy as np
import scipy.sparse as sp

from dynembed.netseries import GraphSeries, SymmetricPattern, as_patterns


def permute(series: GraphSeries, perm) -> GraphSeries:
    """Relabel nodes: new node i is old node perm[i]."""
    perm = np.asarray(perm)
    if sorted(perm.tolist()) != list(range(series.n_nodes)):
        raise ValueError("perm must be a permutation of range(n_nodes)")
    snaps = [sp.csr_matrix(a)[perm][:, perm] for a in series.snapshots]
    labels = [series.node_labels[i] for i in perm]
    return GraphSeries(snapshots=snaps, node_labels=labels, times=list(series.times))


def omnibus_matrix(series) -> np.ndarray:
    """The dense omnibus matrix, block (s, t) = (A_s + A_t) / 2, from each
    snapshot's scipy matrix: the oracle for ``embedders.omnibus_blocks``."""
    a = [p.tocsr().toarray() for p in as_patterns(series)]
    return np.block([[(x + y) * 0.5 for y in a] for x in a])


def unpadded(blocks) -> np.ndarray:
    """``np.block`` of ``embedders.omnibus_blocks``'s n x n blocks, after
    checking that each diagonal block is a pattern, taken as its dense
    array, and each shared block holds zero rows below it up to a multiple
    of 8."""
    n = blocks[0][0].n
    for s, row in enumerate(blocks):
        assert isinstance(row[s], SymmetricPattern)
        for b in row[:s] + row[s + 1:]:
            assert b.shape[0] % 8 == 0 and 0 <= b.shape[0] - n < 8 and not b[n:].any()
    return np.block([[b.toarray() if s == t else b[:n] for t, b in enumerate(row)]
                     for s, row in enumerate(blocks)])


def write_csv_per_cell(path, header, columns) -> int:
    """Reference CSV writer: formats one cell at a time, floats (Python or
    numpy) at 17 significant digits and everything else by ``str``."""
    cells = [(format(float(x), ".17g") if isinstance(x, float) else str(x)
              for x in (c.tolist() if isinstance(c, np.ndarray) else c))
             for c in columns]
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in zip(*cells, strict=True):
            fh.write(",".join(row) + "\n")
            rows += 1
    return rows


def transient_bytes(call):
    """``call()``'s result, and the tracemalloc peak during the call less the
    bytes of the arrays it returns: a dense matrix, each distinct array of a
    nested list of blocks (which may hold patterns made before the call),
    or every array that a series' patterns keep, a
    view counted with the array it views. numpy traces its data buffers, so
    this counts every temporary array."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(result, np.ndarray):
        return result, peak - result.nbytes
    if isinstance(result, list):
        distinct = {id(b): b for row in result for b in row if isinstance(b, np.ndarray)}
        return result, peak - sum(b.nbytes for b in distinct.values())
    return result, peak - sum(a.nbytes for p in result.patterns for a in vars(p).values()
                              if isinstance(a, np.ndarray) and a.base is None)
