"""Hot voxel kernels.

Flooding, regional minima, grayscale reconstruction and non-local means each
have a numba @njit twin and a numpy path; their public entry points dispatch
on :mod:`tomoseg.backend`, and the twins carry ``_numba`` / ``_numpy``
suffixes so tests and benchmarks can run both regardless of the active
backend. The distance transform, connected components, separable
correlation, the Sauvola field, rotation and superellipsoid rendering have
one numpy/scipy implementation each.
"""
