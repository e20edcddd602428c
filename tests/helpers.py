"""Helpers shared by several test modules."""

import numpy as np
import scipy.sparse as sp

from dynembed.netseries import GraphSeries


def permute(series: GraphSeries, perm) -> GraphSeries:
    """Relabel nodes: new node i is old node perm[i]."""
    perm = np.asarray(perm)
    if sorted(perm.tolist()) != list(range(series.n_nodes)):
        raise ValueError("perm must be a permutation of range(n_nodes)")
    snaps = [sp.csr_matrix(a)[perm][:, perm] for a in series.snapshots]
    labels = [series.node_labels[i] for i in perm]
    return GraphSeries(snapshots=snaps, node_labels=labels, times=list(series.times))
