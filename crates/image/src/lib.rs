//! # pi2m-image
//!
//! The image substrate for PI2M: dense multi-label segmented 3D voxel images
//! ([`LabeledImage`]) with anisotropic world spacing, surface-voxel queries,
//! procedural multi-tissue phantoms standing in for the paper's clinical
//! atlases ([`phantoms`]), and a tiny persistence format ([`io`]).

pub mod io;
pub mod labeled;
pub mod phantoms;

pub use labeled::{Label, LabeledImage, BACKGROUND};

/// Load an input by its spec: `phantom:NAME` builds a built-in phantom at
/// scale 1, anything else is a `.pim` path.
pub fn load_input(spec: &str) -> Result<LabeledImage, String> {
    if let Some(name) = spec.strip_prefix("phantom:") {
        phantoms::by_name(name, 1.0).ok_or_else(|| format!("unknown phantom '{name}'"))
    } else {
        io::load(spec).map_err(|e| format!("cannot read {spec}: {e}"))
    }
}
