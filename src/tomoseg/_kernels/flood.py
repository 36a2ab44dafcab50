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


def priority_flood(height: np.ndarray, markers: np.ndarray, mask: np.ndarray, offs: np.ndarray):
    height = np.ascontiguousarray(height, np.float64)
    markers = np.ascontiguousarray(markers, np.int32)
    mask = np.ascontiguousarray(mask, bool)
    # Every entry a binary heap would hold for a voxel carries that voxel's
    # height, so its first entry pops first and the later ones are no-ops:
    # a voxel is queued once, taking the label of the voxel that queued it.
    # One FIFO per height keeps equal heights in insertion order, and a heap
    # of the heights whose FIFO is non-empty always yields the lowest one,
    # also when a voxel lower than the current level is queued. The volume
    # is padded by one voxel that is never free, so flat neighbor offsets
    # need no bounds check.
    inner = (slice(1, -1),) * 3
    shape = tuple(n + 2 for n in height.shape)
    lab_arr = np.zeros(shape, np.int32)
    lab_arr[inner] = markers
    free_arr = np.zeros(shape, np.uint8)
    free_arr[inner] = mask & (markers == 0)
    h_arr = np.zeros(shape, np.float64)
    h_arr[inner] = height
    strides = tuple(int(k) for k in offs @ np.array([shape[1] * shape[2], shape[2], 1]))
    lab = memoryview(lab_arr.reshape(-1))
    free = memoryview(free_arr.reshape(-1))
    h = memoryview(h_arr.reshape(-1))
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
    return np.ascontiguousarray(lab_arr[inner])
