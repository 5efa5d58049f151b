//! Splitting a labeled image into overlapping axis-aligned chunks.
//!
//! The split is a *plan* over voxel indices, not data: each [`ChunkSpec`]
//! names the half-open voxel box the chunk **owns** (its core) and the
//! halo-padded half-open box it **sees** (core grown by `halo` voxels per
//! side, clamped to the image). Cores tile the image exactly — every voxel
//! belongs to exactly one core — while halos overlap so each chunk meshes
//! its core with full isosurface context across the seam.

/// One chunk of a shard plan, in parent-image voxel coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Position in the shard grid (`[ix, iy, iz]`).
    pub index: [usize; 3],
    /// Inclusive lower corner of the owned core box.
    pub core_lo: [usize; 3],
    /// Exclusive upper corner of the owned core box.
    pub core_hi: [usize; 3],
    /// Inclusive lower corner of the halo-padded view (clamped to the image).
    pub lo: [usize; 3],
    /// Exclusive upper corner of the halo-padded view (clamped to the image).
    pub hi: [usize; 3],
}

impl ChunkSpec {
    /// Voxel dimensions of the halo-padded view.
    pub fn dims(&self) -> [usize; 3] {
        [
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        ]
    }
}

/// Typed failures of shard planning.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardError {
    /// A grid axis was zero.
    EmptyAxis { axis: usize },
    /// More shards than voxels along an axis: some chunk would own nothing.
    GridExceedsDim {
        axis: usize,
        shards: usize,
        dim: usize,
    },
    /// The halo is at least as wide as the narrowest chunk core on a seamed
    /// axis, so a chunk's halo would swallow its neighbor's whole core.
    HaloTooWide {
        axis: usize,
        halo: usize,
        chunk: usize,
    },
    /// A chunk or stitch run failed with a typed engine error.
    Run(crate::error::RefineError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::EmptyAxis { axis } => {
                write!(f, "shard grid axis {axis} is zero")
            }
            ShardError::GridExceedsDim { axis, shards, dim } => write!(
                f,
                "shard grid axis {axis} asks for {shards} chunks over {dim} voxels"
            ),
            ShardError::HaloTooWide { axis, halo, chunk } => write!(
                f,
                "halo {halo} is not narrower than the {chunk}-voxel chunk core on axis {axis}"
            ),
            ShardError::Run(e) => write!(f, "sharded run failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<crate::error::RefineError> for ShardError {
    fn from(e: crate::error::RefineError) -> ShardError {
        ShardError::Run(e)
    }
}

/// Chunk boundary `i` of `shards` over `dim` voxels (balanced split).
#[inline]
fn cut(dim: usize, shards: usize, i: usize) -> usize {
    i * dim / shards
}

/// Plan a `grid` decomposition of a `dims` image with a `halo`-voxel overlap.
///
/// Chunks are returned in x-fastest index order. Degenerate requests are
/// rejected with a typed [`ShardError`]: a zero grid axis, more shards than
/// voxels on an axis, or (on any axis with more than one shard) a halo as
/// wide as the narrowest chunk core.
pub fn split_plan(
    dims: [usize; 3],
    grid: [usize; 3],
    halo: usize,
) -> Result<Vec<ChunkSpec>, ShardError> {
    for axis in 0..3 {
        if grid[axis] == 0 {
            return Err(ShardError::EmptyAxis { axis });
        }
        if grid[axis] > dims[axis] {
            return Err(ShardError::GridExceedsDim {
                axis,
                shards: grid[axis],
                dim: dims[axis],
            });
        }
        // The narrowest core on a balanced split is floor(dim / shards).
        let narrowest = dims[axis] / grid[axis];
        if grid[axis] > 1 && halo >= narrowest {
            return Err(ShardError::HaloTooWide {
                axis,
                halo,
                chunk: narrowest,
            });
        }
    }
    let mut plan = Vec::with_capacity(grid[0] * grid[1] * grid[2]);
    for iz in 0..grid[2] {
        for iy in 0..grid[1] {
            for ix in 0..grid[0] {
                let index = [ix, iy, iz];
                let mut core_lo = [0; 3];
                let mut core_hi = [0; 3];
                let mut lo = [0; 3];
                let mut hi = [0; 3];
                for a in 0..3 {
                    core_lo[a] = cut(dims[a], grid[a], index[a]);
                    core_hi[a] = cut(dims[a], grid[a], index[a] + 1);
                    lo[a] = core_lo[a].saturating_sub(halo);
                    hi[a] = core_hi[a].saturating_add(halo).min(dims[a]);
                }
                plan.push(ChunkSpec {
                    index,
                    core_lo,
                    core_hi,
                    lo,
                    hi,
                });
            }
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_split_tiles_exactly() {
        let plan = split_plan([10, 7, 3], [3, 2, 1], 1).unwrap();
        assert_eq!(plan.len(), 6);
        // cores tile: every voxel owned exactly once
        let mut owned = vec![0u32; 10 * 7 * 3];
        for c in &plan {
            for k in c.core_lo[2]..c.core_hi[2] {
                for j in c.core_lo[1]..c.core_hi[1] {
                    for i in c.core_lo[0]..c.core_hi[0] {
                        owned[(k * 7 + j) * 10 + i] += 1;
                    }
                }
            }
        }
        assert!(owned.iter().all(|&n| n == 1));
    }

    #[test]
    fn halo_pads_and_clamps() {
        let plan = split_plan([8, 8, 8], [2, 1, 1], 2).unwrap();
        let a = &plan[0];
        let b = &plan[1];
        assert_eq!((a.core_lo[0], a.core_hi[0]), (0, 4));
        assert_eq!((b.core_lo[0], b.core_hi[0]), (4, 8));
        // interior side grows by the halo, image sides clamp
        assert_eq!((a.lo[0], a.hi[0]), (0, 6));
        assert_eq!((b.lo[0], b.hi[0]), (2, 8));
        // unsharded axes see no halo growth beyond the image
        assert_eq!((a.lo[1], a.hi[1]), (0, 8));
    }

    #[test]
    fn degenerate_requests_are_typed_errors() {
        assert_eq!(
            split_plan([4, 4, 4], [0, 1, 1], 0),
            Err(ShardError::EmptyAxis { axis: 0 })
        );
        assert_eq!(
            split_plan([4, 4, 4], [1, 5, 1], 0),
            Err(ShardError::GridExceedsDim {
                axis: 1,
                shards: 5,
                dim: 4
            })
        );
        assert_eq!(
            split_plan([8, 8, 8], [1, 1, 2], 4),
            Err(ShardError::HaloTooWide {
                axis: 2,
                halo: 4,
                chunk: 4
            })
        );
        // a 1-shard axis has no seam: a huge halo is fine there
        assert!(split_plan([8, 8, 8], [1, 1, 1], 100).is_ok());
    }

    /// A halo too wide to add to a core bound clamps to the image like any
    /// other: on one-shard axes the view is the whole image, as at halo 0.
    #[test]
    fn a_usize_max_halo_on_one_shard_axes_tiles_like_halo_0() {
        let dims = [9, 5, 7];
        let wide = split_plan(dims, [1, 1, 1], usize::MAX).unwrap();
        assert_eq!(wide, split_plan(dims, [1, 1, 1], 0).unwrap());
        assert_eq!((wide[0].lo, wide[0].hi), ([0; 3], dims));
    }
}
