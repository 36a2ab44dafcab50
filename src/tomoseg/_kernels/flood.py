"""Priority-flood used by the marker-based watershed.

Candidates pop in increasing height order; equal heights resolve by queue
insertion order (fronts advance breadth-first across plateaus, so the exact
Euclidean distances' massive value ties split geometrically between
markers), with (label, voxel index) completing the total order at seeding
time. Each pop assigns a voxel permanently; the dividing surface is
recovered afterwards from label adjacency.

The queue is a bucket queue that pops in (height, insertion seq) order:
one FIFO per distinct height, always drained from the lowest non-empty one,
so a voxel queued below the level being flooded pops next (the "pit" case
of Barnes et al., Computers & Geosciences 2014). The tests hold it to a
binary heap ordered by (height, insertion seq). It is a single sequential
queue, so the result is bit-identical across runs and thread counts.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from .recon import GuardedWalk


def priority_flood(height: np.ndarray, markers: np.ndarray, mask: np.ndarray, offs: np.ndarray):
    # Every entry a binary heap would hold for a voxel carries that voxel's
    # height, so its first entry pops first and the later ones are no-ops:
    # a voxel is queued once, taking the label of the voxel that queued it.
    # The guard is never free, so the steps need no bounds check.
    markers = np.asarray(markers, np.int32)
    walk = GuardedWalk(markers.shape, offs)
    lab_arr = walk.copy(markers)
    strides = walk.steps.tolist()
    lab = memoryview(lab_arr)
    free = memoryview(walk.copy((np.asarray(mask, bool) & (markers == 0)).view(np.uint8)))
    h = memoryview(walk.copy(np.asarray(height, np.float64)))
    fifos = {}
    active = []

    def spread(i):
        label = lab[i]
        for d in strides:
            j = i + d
            if free[j]:
                free[j] = 0
                lab[j] = label
                hj = h[j]
                q = fifos.get(hj)
                if q is None:
                    q = fifos[hj] = deque()
                    heapq.heappush(active, hj)
                q.append(j)

    for i in np.flatnonzero(lab_arr).tolist():
        spread(i)
    while active:
        level = active[0]
        q = fifos[level]
        i = q.popleft()
        if not q:
            del fifos[level]
            heapq.heappop(active)
        spread(i)
    return np.ascontiguousarray(lab_arr.reshape(walk.shape)[walk.inner])
