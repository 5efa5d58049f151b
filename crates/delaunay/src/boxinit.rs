//! The virtual box: corner layout, its Delaunay subdivision (paper Figure
//! 1a), and brute-force adjacency wiring. Initialization only: nothing here
//! is called after [`crate::SharedMesh::with_box`] returns.
//!
//! The 8 corners of a box are exactly cospherical, so "the" Delaunay
//! subdivision is ambiguous. The whole kernel resolves degeneracies with the
//! symbolically perturbed [`insphere_sos`] predicate (keys = insertion
//! timestamps), which makes the triangulation of any vertex set *unique*;
//! the initial subdivision must therefore be the SoS-Delaunay triangulation
//! of the corners under their keys. Brute force finds it over all 4-subsets
//! (70 candidates, each needing exact-arithmetic ties: 0.5–1 ms). The
//! answer is the same for every box with positive extents: `orient3d` of
//! four corners is ex·ey·ez times a determinant of −1/0/1 entries, and any
//! five corners are cospherical, so every sign the perturbed predicate
//! reads is the unit box's. It is therefore computed once per process, and
//! a box only supplies its corners.

use pi2m_geometry::{insphere_sos, orient3d_sign, signed_volume, Aabb, Point3};
use std::sync::OnceLock;

/// The corners' keys: their vertex ids, as [`crate::SharedMesh::with_box`]
/// allocates the corners first and in corner order.
const CORNER_KEYS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// The 8 corners of a box; corner `i` uses `max` on axis `a` iff bit `a` of
/// `i` is set.
pub fn box_corners(b: &Aabb) -> [[f64; 3]; 8] {
    let mut out = [[0.0; 3]; 8];
    for (i, c) in out.iter_mut().enumerate() {
        *c = [
            if i & 1 != 0 { b.max.x } else { b.min.x },
            if i & 2 != 0 { b.max.y } else { b.min.y },
            if i & 4 != 0 { b.max.z } else { b.min.z },
        ];
    }
    out
}

/// The SoS-Delaunay tetrahedra of the 8 box corners under the given keys:
/// every positively oriented 4-subset whose perturbed circumsphere excludes
/// the other 4 corners.
fn sos_delaunay_of_corners(corners: &[[f64; 3]; 8], keys: &[u64; 8]) -> Vec<[usize; 4]> {
    let mut tets = Vec::new();
    for i in 0..8 {
        for j in (i + 1)..8 {
            for k in (j + 1)..8 {
                for l in (k + 1)..8 {
                    let mut t = [i, j, k, l];
                    let s = orient3d_sign(
                        &corners[t[0]],
                        &corners[t[1]],
                        &corners[t[2]],
                        &corners[t[3]],
                    );
                    if s == 0 {
                        continue;
                    }
                    if s < 0 {
                        t.swap(2, 3);
                    }
                    let empty = (0..8).filter(|m| !t.contains(m)).all(|m| {
                        insphere_sos(
                            &corners[t[0]],
                            &corners[t[1]],
                            &corners[t[2]],
                            &corners[t[3]],
                            &corners[m],
                            [keys[t[0]], keys[t[1]], keys[t[2]], keys[t[3]], keys[m]],
                        ) < 0
                    });
                    if empty {
                        tets.push(t);
                    }
                }
            }
        }
    }
    tets
}

/// Brute-force adjacency for a small set of tetrahedra: `out[t][i]` is the
/// index of the tet sharing the face opposite vertex `i` of tet `t`, or
/// `usize::MAX` when the face is on the boundary.
pub fn brute_force_adjacency(tets: &[[usize; 4]]) -> Vec<[usize; 4]> {
    let face_key = |t: &[usize; 4], i: usize| {
        let mut f: Vec<usize> = (0..4).filter(|&k| k != i).map(|k| t[k]).collect();
        f.sort_unstable();
        (f[0], f[1], f[2])
    };
    let mut out = vec![[usize::MAX; 4]; tets.len()];
    for (a, ta) in tets.iter().enumerate() {
        for i in 0..4 {
            if out[a][i] != usize::MAX {
                continue;
            }
            let ka = face_key(ta, i);
            for (b, tb) in tets.iter().enumerate() {
                if a == b {
                    continue;
                }
                for j in 0..4 {
                    if face_key(tb, j) == ka {
                        out[a][i] = b;
                        out[b][j] = a;
                    }
                }
            }
        }
    }
    out
}

/// Compute a virtual box comfortably enclosing `domain`: inflate by half the
/// diagonal so that circumcenters of refinable tetrahedra stay inside
/// (see DESIGN.md "Concurrency design"; points proposed outside the box are
/// skipped by the refinement rules).
pub fn virtual_box(domain: &Aabb) -> Aabb {
    let margin = 0.5 * domain.diagonal().max(1.0);
    domain.inflated(margin)
}

/// Corner positions, tetrahedra (vertex quadruples), and per-tet adjacency
/// of the initial box triangulation.
pub type BoxMesh = ([[f64; 3]; 8], Vec<[usize; 4]>, Vec<[usize; 4]>);

/// Tetrahedra as corner indices, and their adjacency.
type CornerTets = (Vec<[usize; 4]>, Vec<[usize; 4]>);

/// The SoS-Delaunay tetrahedra of a box's corners under `CORNER_KEYS`, and
/// their adjacency: the same for every box (see the module doc), so they
/// are brute-forced once, on the unit box.
fn corner_triangulation() -> &'static CornerTets {
    static TRIANGULATION: OnceLock<CornerTets> = OnceLock::new();
    TRIANGULATION.get_or_init(|| {
        let unit = Aabb::new(Point3::ORIGIN, Point3::new(1.0, 1.0, 1.0));
        let tets = sos_delaunay_of_corners(&box_corners(&unit), &CORNER_KEYS);
        let adj = brute_force_adjacency(&tets);
        (tets, adj)
    })
}

/// The initial triangulation of a box: corners, positively oriented
/// SoS-Delaunay tetrahedra (under the corners' vertex ids), and their
/// adjacency. Panics unless every extent of `b` is positive.
pub fn box_mesh(b: &Aabb) -> BoxMesh {
    let e = b.extent();
    assert!(
        e.x > 0.0 && e.y > 0.0 && e.z > 0.0,
        "virtual box {b:?} has a non-positive extent"
    );
    let corners = box_corners(b);
    let (tets, adj) = corner_triangulation();
    // the SoS-DT of hull points always tiles the hull; assert it
    let total: f64 = tets
        .iter()
        .map(|t| {
            signed_volume(
                Point3::from_array(corners[t[0]]),
                Point3::from_array(corners[t[1]]),
                Point3::from_array(corners[t[2]]),
                Point3::from_array(corners[t[3]]),
            )
        })
        .sum();
    let expect = e.x * e.y * e.z;
    assert!(
        (total - expect).abs() <= 1e-9 * expect,
        "box SoS-DT does not tile the box: {total} vs {expect}"
    );
    (corners, tets.clone(), adj.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_geometry::Point3 as P;

    fn unit_box() -> Aabb {
        Aabb::new(P::new(0.0, 0.0, 0.0), P::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn sos_dt_tiles_the_box() {
        let (c, tets, _) = box_mesh(&unit_box());
        // 5 or 6 tets depending on the tie resolution; all positive volume
        assert!(
            tets.len() == 5 || tets.len() == 6,
            "got {} tets",
            tets.len()
        );
        for t in &tets {
            let v = pi2m_geometry::signed_volume(
                P::from_array(c[t[0]]),
                P::from_array(c[t[1]]),
                P::from_array(c[t[2]]),
                P::from_array(c[t[3]]),
            );
            assert!(v > 0.0);
        }
    }

    #[test]
    fn sos_dt_is_deterministic() {
        let (_, t1, _) = box_mesh(&unit_box());
        let (_, t2, _) = box_mesh(&unit_box());
        assert_eq!(t1, t2);
    }

    /// Only the keys' order reaches the perturbed predicate: keys in
    /// another order of magnitude, but in the same order, give the same
    /// tets.
    #[test]
    fn keys_in_the_same_order_give_the_same_tets() {
        let mut keys = [0u64; 8];
        for (k, slot) in keys.iter_mut().enumerate() {
            *slot = u64::MAX - 8 + k as u64;
        }
        let corners = box_corners(&unit_box());
        assert_eq!(
            sos_delaunay_of_corners(&corners, &keys),
            corner_triangulation().0
        );
    }

    /// The once-computed triangulation is the brute-force one of any box:
    /// random origins, extents from 1e-3 to 1e3 per axis, and thin slabs.
    #[test]
    fn cached_tets_match_brute_force_on_random_boxes() {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let cached = &corner_triangulation().0;
        for i in 0..200 {
            let min = P::new(
                (next() - 0.5) * 2e3,
                (next() - 0.5) * 2e3,
                (next() - 0.5) * 2e3,
            );
            // log-uniform extents in [1e-3, 1e3]; every fourth box is a slab
            // with one extent six orders of magnitude below another
            let mut ext: [f64; 3] = std::array::from_fn(|_| 10f64.powf(next() * 6.0 - 3.0));
            if i % 4 == 0 {
                ext[i / 4 % 3] = 1e-3;
                ext[(i / 4 + 1) % 3] = 1e3;
            }
            let b = Aabb::new(min, min + P::new(ext[0], ext[1], ext[2]));
            let brute = sos_delaunay_of_corners(&box_corners(&b), &CORNER_KEYS);
            assert_eq!(&brute, cached, "box {b:?}");
            let (_, tets, _) = box_mesh(&b);
            assert_eq!(&tets, cached);
        }
    }

    #[test]
    #[should_panic(expected = "non-positive extent")]
    fn a_flat_box_is_refused() {
        box_mesh(&Aabb::new(P::new(0.0, 0.0, 0.0), P::new(1.0, 1.0, 0.0)));
    }

    #[test]
    fn adjacency_is_symmetric_and_complete() {
        let (_, tets, adj) = box_mesh(&unit_box());
        for (a, na) in adj.iter().enumerate() {
            for (i, &b) in na.iter().enumerate() {
                if b == usize::MAX {
                    continue;
                }
                assert!(adj[b].contains(&a), "tet {b} must point back to {a}");
                let fa: Vec<_> = (0..4).filter(|&k| k != i).map(|k| tets[a][k]).collect();
                let j = adj[b].iter().position(|&x| x == a).unwrap();
                let fb: Vec<_> = (0..4).filter(|&k| k != j).map(|k| tets[b][k]).collect();
                let mut sa = fa.clone();
                sa.sort_unstable();
                let mut sb = fb.clone();
                sb.sort_unstable();
                assert_eq!(sa, sb);
            }
        }
        // boundary faces: each of the 6 box faces is split into 2 triangles
        let hull_faces: usize = adj
            .iter()
            .map(|na| na.iter().filter(|&&b| b == usize::MAX).count())
            .sum();
        assert_eq!(hull_faces, 12);
    }

    #[test]
    fn virtual_box_contains_domain() {
        let d = Aabb::new(P::new(-1.0, 2.0, 3.0), P::new(5.0, 8.0, 4.0));
        let vb = virtual_box(&d);
        assert!(vb.contains(d.min) && vb.contains(d.max));
        assert!(vb.extent().x > d.extent().x);
    }

    #[test]
    fn corner_bit_layout() {
        let c = box_corners(&unit_box());
        assert_eq!(c[0], [0.0, 0.0, 0.0]);
        assert_eq!(c[7], [1.0, 1.0, 1.0]);
        assert_eq!(c[5], [1.0, 0.0, 1.0]);
    }

    #[test]
    fn anisotropic_box_works() {
        let b = Aabb::new(P::new(0.0, 0.0, 0.0), P::new(4.0, 2.0, 1.0));
        let (_, tets, _) = box_mesh(&b);
        assert!(!tets.is_empty());
    }
}
