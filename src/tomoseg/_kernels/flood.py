"""Priority-flood used by the marker-based watershed.

Candidates pop in increasing height order; equal heights resolve by queue
insertion order (fronts advance breadth-first across plateaus, so the exact
Euclidean distances' massive value ties split geometrically between
markers), with (label, voxel index) completing the total order at seeding
time. Each pop assigns a voxel permanently; the dividing surface is
recovered afterwards from label adjacency.

The numba twin keeps one binary heap ordered by (height, insertion seq).
The numpy path is a bucket queue that pops in exactly that order: one FIFO
per distinct height, always drained from the lowest non-empty one, so a
voxel queued below the level being flooded pops next (the "pit" case of
Barnes et al., Computers & Geosciences 2014). Both are a single sequential
queue, so the result is bit-identical across runs, backends and thread
counts.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..backend import njit, use_numba


@njit(cache=True)
def _less(pr, sq, i, j):
    if pr[i] != pr[j]:
        return pr[i] < pr[j]
    return sq[i] < sq[j]


@njit(cache=True)
def _swap(pr, sq, lb, ix, i, j):
    pr[i], pr[j] = pr[j], pr[i]
    sq[i], sq[j] = sq[j], sq[i]
    lb[i], lb[j] = lb[j], lb[i]
    ix[i], ix[j] = ix[j], ix[i]


@njit(cache=True)
def _sift_up(pr, sq, lb, ix, c):
    while c > 0:
        parent = (c - 1) >> 1
        if _less(pr, sq, c, parent):
            _swap(pr, sq, lb, ix, c, parent)
            c = parent
        else:
            break


@njit(cache=True)
def _sift_down(pr, sq, lb, ix, n):
    c = 0
    while True:
        left = 2 * c + 1
        right = left + 1
        best = c
        if left < n and _less(pr, sq, left, best):
            best = left
        if right < n and _less(pr, sq, right, best):
            best = right
        if best == c:
            return
        _swap(pr, sq, lb, ix, c, best)
        c = best


@njit(cache=True)
def _flood_numba(height, markers, mask, offs):
    nz, ny, nx = height.shape
    out = markers.copy()
    fg = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if mask[z, y, x]:
                    fg += 1
    cap = max(1024, 2 * fg + 16)
    pr = np.empty(cap, np.float64)
    sq = np.empty(cap, np.int64)
    lb = np.empty(cap, np.int32)
    ix = np.empty(cap, np.int64)
    n = 0
    seq = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if out[z, y, x] == 0:
                    continue
                for k in range(offs.shape[0]):
                    zz = z + offs[k, 0]
                    yy = y + offs[k, 1]
                    xx = x + offs[k, 2]
                    if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                        if mask[zz, yy, xx] and out[zz, yy, xx] == 0:
                            if n == cap:
                                cap *= 2
                                pr2 = np.empty(cap, np.float64)
                                sq2 = np.empty(cap, np.int64)
                                lb2 = np.empty(cap, np.int32)
                                ix2 = np.empty(cap, np.int64)
                                pr2[:n] = pr
                                sq2[:n] = sq
                                lb2[:n] = lb
                                ix2[:n] = ix
                                pr, sq, lb, ix = pr2, sq2, lb2, ix2
                            pr[n] = height[zz, yy, xx]
                            sq[n] = seq
                            lb[n] = out[z, y, x]
                            ix[n] = (zz * ny + yy) * nx + xx
                            seq += 1
                            n += 1
                            _sift_up(pr, sq, lb, ix, n - 1)
    while n > 0:
        label = lb[0]
        i = ix[0]
        n -= 1
        _swap(pr, sq, lb, ix, 0, n)
        _sift_down(pr, sq, lb, ix, n)
        z = i // (ny * nx)
        rem = i % (ny * nx)
        y = rem // nx
        x = rem % nx
        if out[z, y, x] != 0:
            continue
        out[z, y, x] = label
        for k in range(offs.shape[0]):
            zz = z + offs[k, 0]
            yy = y + offs[k, 1]
            xx = x + offs[k, 2]
            if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                if mask[zz, yy, xx] and out[zz, yy, xx] == 0:
                    if n == cap:
                        cap *= 2
                        pr2 = np.empty(cap, np.float64)
                        sq2 = np.empty(cap, np.int64)
                        lb2 = np.empty(cap, np.int32)
                        ix2 = np.empty(cap, np.int64)
                        pr2[:n] = pr
                        sq2[:n] = sq
                        lb2[:n] = lb
                        ix2[:n] = ix
                        pr, sq, lb, ix = pr2, sq2, lb2, ix2
                    pr[n] = height[zz, yy, xx]
                    sq[n] = seq
                    lb[n] = label
                    ix[n] = (zz * ny + yy) * nx + xx
                    seq += 1
                    n += 1
                    _sift_up(pr, sq, lb, ix, n - 1)
    return out


def _flood_numpy(height, markers, mask, offs):
    # Every entry the heap would hold for a voxel carries that voxel's
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


def priority_flood(height: np.ndarray, markers: np.ndarray, mask: np.ndarray, offs: np.ndarray):
    height = np.ascontiguousarray(height, np.float64)
    markers = np.ascontiguousarray(markers, np.int32)
    mask = np.ascontiguousarray(mask, bool)
    if use_numba():
        return _flood_numba(height, markers, mask, offs)
    return _flood_numpy(height, markers, mask, offs)
