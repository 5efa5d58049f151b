//! Multi-component floating-point expansions (Shewchuk 1997).
//!
//! An *expansion* represents a real number exactly as a sum of doubles
//! `e = e_0 + e_1 + ... + e_{n-1}` whose components are nonoverlapping and
//! sorted by increasing magnitude. All arithmetic here is exact; expansions
//! only grow, they never round. The exact predicate fallbacks are built on
//! this type, so correctness of everything downstream (Delaunay invariants,
//! cavity validity) rests on these algorithms.

use crate::primitives::{fast_two_sum, two_diff, two_product, two_square, two_sum};

/// An exact real number stored as a nonoverlapping, magnitude-sorted sum of
/// doubles. The zero value is represented by an empty component list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expansion {
    comps: Vec<f64>,
}

impl Expansion {
    /// The exact zero.
    #[inline]
    pub fn zero() -> Self {
        Expansion { comps: Vec::new() }
    }

    /// An expansion holding a single double exactly.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        if v == 0.0 {
            Self::zero()
        } else {
            Expansion { comps: vec![v] }
        }
    }

    /// The exact difference `a - b` of two doubles as a (≤2)-component expansion.
    #[inline]
    pub fn from_diff(a: f64, b: f64) -> Self {
        let (x, y) = two_diff(a, b);
        Expansion::from_pair(x, y)
    }

    /// Build from a (high, low) error-free transformation pair.
    #[inline]
    pub fn from_pair(x: f64, y: f64) -> Self {
        let mut comps = Vec::with_capacity(2);
        if y != 0.0 {
            comps.push(y);
        }
        if x != 0.0 {
            comps.push(x);
        }
        Expansion { comps }
    }

    /// Number of nonzero components.
    #[inline]
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// True iff there are no components (the expansion is exactly zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// True iff the represented value is exactly zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.comps.is_empty()
    }

    /// Raw components, smallest magnitude first.
    #[inline]
    pub fn components(&self) -> &[f64] {
        &self.comps
    }

    /// The sign of the exact value: -1, 0, or +1. Because components are
    /// nonoverlapping and sorted, the last (largest) component dominates.
    #[inline]
    pub fn sign(&self) -> i8 {
        match self.comps.last() {
            None => 0,
            Some(&c) if c > 0.0 => 1,
            Some(&c) if c < 0.0 => -1,
            _ => 0,
        }
    }

    /// A double approximation of the exact value (sum smallest-first).
    pub fn estimate(&self) -> f64 {
        self.comps.iter().sum()
    }

    /// Exact negation.
    pub fn neg(&self) -> Expansion {
        Expansion {
            comps: self.comps.iter().map(|c| -c).collect(),
        }
    }

    /// Exact sum of two expansions (`fast_expansion_sum_zeroelim`).
    pub fn add(&self, other: &Expansion) -> Expansion {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let e = &self.comps;
        let f = &other.comps;
        let mut h = Vec::with_capacity(e.len() + f.len());

        let mut eindex = 0usize;
        let mut findex = 0usize;
        let mut enow = e[0];
        let mut fnow = f[0];

        // Merge-start: pick the smaller-magnitude leading component.
        let mut q;
        if (fnow > enow) == (fnow > -enow) {
            q = enow;
            eindex += 1;
            if eindex < e.len() {
                enow = e[eindex];
            }
        } else {
            q = fnow;
            findex += 1;
            if findex < f.len() {
                fnow = f[findex];
            }
        }

        if eindex < e.len() && findex < f.len() {
            let (qnew, hh);
            if (fnow > enow) == (fnow > -enow) {
                let r = fast_two_sum(enow, q);
                qnew = r.0;
                hh = r.1;
                eindex += 1;
                if eindex < e.len() {
                    enow = e[eindex];
                }
            } else {
                let r = fast_two_sum(fnow, q);
                qnew = r.0;
                hh = r.1;
                findex += 1;
                if findex < f.len() {
                    fnow = f[findex];
                }
            }
            q = qnew;
            if hh != 0.0 {
                h.push(hh);
            }
            while eindex < e.len() && findex < f.len() {
                let (qnew, hh);
                if (fnow > enow) == (fnow > -enow) {
                    let r = two_sum(q, enow);
                    qnew = r.0;
                    hh = r.1;
                    eindex += 1;
                    if eindex < e.len() {
                        enow = e[eindex];
                    }
                } else {
                    let r = two_sum(q, fnow);
                    qnew = r.0;
                    hh = r.1;
                    findex += 1;
                    if findex < f.len() {
                        fnow = f[findex];
                    }
                }
                q = qnew;
                if hh != 0.0 {
                    h.push(hh);
                }
            }
        }
        while eindex < e.len() {
            let (qnew, hh) = two_sum(q, enow);
            eindex += 1;
            if eindex < e.len() {
                enow = e[eindex];
            }
            q = qnew;
            if hh != 0.0 {
                h.push(hh);
            }
        }
        while findex < f.len() {
            let (qnew, hh) = two_sum(q, fnow);
            findex += 1;
            if findex < f.len() {
                fnow = f[findex];
            }
            q = qnew;
            if hh != 0.0 {
                h.push(hh);
            }
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion { comps: h }
    }

    /// Exact difference of two expansions.
    pub fn sub(&self, other: &Expansion) -> Expansion {
        self.add(&other.neg())
    }

    /// Exact product of an expansion and a double
    /// (`scale_expansion_zeroelim`).
    pub fn scale(&self, b: f64) -> Expansion {
        if self.is_zero() || b == 0.0 {
            return Expansion::zero();
        }
        let e = &self.comps;
        let mut h = Vec::with_capacity(2 * e.len());
        let (mut q, hh) = two_product(e[0], b);
        if hh != 0.0 {
            h.push(hh);
        }
        for &enow in &e[1..] {
            let (product1, product0) = two_product(enow, b);
            let (sum, hh) = two_sum(q, product0);
            if hh != 0.0 {
                h.push(hh);
            }
            let (qnew, hh) = fast_two_sum(product1, sum);
            q = qnew;
            if hh != 0.0 {
                h.push(hh);
            }
        }
        if q != 0.0 {
            h.push(q);
        }
        Expansion { comps: h }
    }

    /// Exact product of two expansions (distillation of scaled partials).
    pub fn mul(&self, other: &Expansion) -> Expansion {
        if self.is_zero() || other.is_zero() {
            return Expansion::zero();
        }
        // Scale the longer expansion by each component of the shorter one.
        let (long, short) = if self.len() >= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut acc = Expansion::zero();
        for &c in &short.comps {
            acc = acc.add(&long.scale(c));
        }
        acc
    }

    /// Exact square of a (≤2)-component expansion built from an error-free
    /// pair; falls back to general multiplication otherwise.
    pub fn square(&self) -> Expansion {
        match self.comps.len() {
            0 => Expansion::zero(),
            1 => {
                let (x, y) = two_square(self.comps[0]);
                Expansion::from_pair(x, y)
            }
            _ => self.mul(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(e: &Expansion) -> f64 {
        // For test values chosen with small exponent ranges, summing largest
        // to smallest in f64 is exact enough to compare against references.
        e.comps.iter().rev().sum()
    }

    #[test]
    fn zero_behaviour() {
        let z = Expansion::zero();
        assert!(z.is_zero());
        assert_eq!(z.sign(), 0);
        assert_eq!(z.add(&Expansion::from_f64(3.0)).estimate(), 3.0);
        assert!(z.mul(&Expansion::from_f64(5.0)).is_zero());
    }

    #[test]
    fn add_exact_integers() {
        let a = Expansion::from_f64(1e20);
        let b = Expansion::from_f64(1.0);
        let s = a.add(&b);
        // 1e20 + 1 is not representable in a double; the expansion keeps both.
        assert_eq!(s.len(), 2);
        assert_eq!(s.components()[1], 1e20);
        assert_eq!(s.components()[0], 1.0);
    }

    #[test]
    fn cancellation_gives_exact_zero() {
        let a = Expansion::from_f64(1e20).add(&Expansion::from_f64(1.0));
        let b = Expansion::from_f64(-1e20).add(&Expansion::from_f64(-1.0));
        let s = a.add(&b);
        assert!(s.is_zero());
        assert_eq!(s.sign(), 0);
    }

    #[test]
    fn tiny_residue_sign() {
        // (1e20 + 1) - 1e20 == 1 exactly in expansion arithmetic.
        let a = Expansion::from_f64(1e20).add(&Expansion::from_f64(1.0));
        let d = a.sub(&Expansion::from_f64(1e20));
        assert_eq!(d.sign(), 1);
        assert_eq!(exact(&d), 1.0);
    }

    #[test]
    fn scale_matches_integer_arithmetic() {
        // (2^30 + 1) * (2^30 - 1) = 2^60 - 1, exactly representable in i128.
        let a = Expansion::from_f64((1u64 << 30) as f64 + 1.0);
        let p = a.scale((1u64 << 30) as f64 - 1.0);
        let expect = ((1i128 << 60) - 1) as f64; // rounded head
        assert!((p.estimate() - expect).abs() <= 1.0);
        // exact check: components must sum to 2^60 - 1 over integers
        let total: i128 = p.components().iter().map(|&c| c as i128).sum();
        assert_eq!(total, (1i128 << 60) - 1);
    }

    #[test]
    fn mul_small_integers_exact() {
        for (x, y) in [(3.0, 7.0), (-11.0, 13.0), (1025.0, -4097.0)] {
            let p = Expansion::from_f64(x).mul(&Expansion::from_f64(y));
            assert_eq!(exact(&p), x * y);
        }
    }

    #[test]
    fn square_of_pair() {
        let e = Expansion::from_diff(1.0 + 2f64.powi(-40), 2f64.powi(-45));
        let sq = e.square();
        let direct = e.mul(&e);
        assert_eq!(exact(&sq), exact(&direct));
    }

    #[test]
    fn from_diff_exact() {
        let a = 1.0 + 2f64.powi(-52);
        let e = Expansion::from_diff(a, 1.0);
        assert_eq!(exact(&e), 2f64.powi(-52));
    }
}
