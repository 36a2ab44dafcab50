"""Hot voxel kernels.

Each kernel has one numpy/scipy implementation: flooding, regional minima,
grayscale reconstruction, non-local means, the distance transform,
connected components, separable correlation, the Sauvola field, rotation
and superellipsoid rendering. The tests hold each to an independent oracle.
"""
