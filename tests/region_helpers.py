"""Dense region operators built from `artifact.region_mask`, for tests that
compare against or assemble explicit projectors."""
import numpy as np

from artifact import ComputationError, region_mask, windowed_site_ids


def site_projector(region, geometry) -> np.ndarray:
    """Diagonal 0/1 projector on K for an explicit site-id set."""
    return np.diag(region_mask(region, geometry).astype(float))


def partition_masks(partition, geometry) -> list[np.ndarray]:
    """The three K-masks of the full cones. Every site lands in exactly one
    cone (genericity is enforced per site); the masks sum to the identity."""
    masks = [region_mask(ids, geometry) for ids in windowed_site_ids(partition, geometry, 1.0)]
    total = masks[0].astype(int) + masks[1].astype(int) + masks[2].astype(int)
    if not np.all(total == 1):
        raise ComputationError("non-generic site")
    return masks
