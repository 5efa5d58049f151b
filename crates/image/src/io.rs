//! Minimal image persistence: a plain text header plus raw `u8` labels.
//!
//! Format (`.pim` = "PI2M image"):
//!
//! ```text
//! PI2M-IMAGE 1
//! dims <nx> <ny> <nz>
//! spacing <sx> <sy> <sz>
//! origin <ox> <oy> <oz>
//! data
//! <nx*ny*nz raw bytes, x fastest>
//! ```

use crate::labeled::LabeledImage;
use pi2m_geometry::Point3;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Write an image to a writer in `.pim` format.
pub fn write_pim<W: Write>(img: &LabeledImage, w: &mut W) -> io::Result<()> {
    let d = img.dims();
    let s = img.spacing();
    let o = img.origin();
    writeln!(w, "PI2M-IMAGE 1")?;
    writeln!(w, "dims {} {} {}", d[0], d[1], d[2])?;
    writeln!(w, "spacing {} {} {}", s[0], s[1], s[2])?;
    writeln!(w, "origin {} {} {}", o.x, o.y, o.z)?;
    writeln!(w, "data")?;
    w.write_all(img.data())?;
    Ok(())
}

/// Read an image in `.pim` format.
pub fn read_pim<R: Read>(r: R) -> io::Result<LabeledImage> {
    let mut br = BufReader::new(r);
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());

    let mut line = String::new();
    br.read_line(&mut line)?;
    if line.trim() != "PI2M-IMAGE 1" {
        return Err(bad("bad magic"));
    }

    let mut dims = [0usize; 3];
    let mut spacing = [1.0f64; 3];
    let mut origin = [0.0f64; 3];
    loop {
        line.clear();
        if br.read_line(&mut line)? == 0 {
            return Err(bad("unexpected EOF in header"));
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("dims") => {
                for d in &mut dims {
                    *d = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad dims"))?;
                }
            }
            Some("spacing") => {
                for s in &mut spacing {
                    *s = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad spacing"))?;
                }
            }
            Some("origin") => {
                for o in &mut origin {
                    *o = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad origin"))?;
                }
            }
            Some("data") => break,
            Some(k) => return Err(bad(&format!("unknown header key {k}"))),
            None => {}
        }
    }
    if dims.contains(&0) {
        return Err(bad("dims not specified"));
    }
    for (a, &s) in spacing.iter().enumerate() {
        if !s.is_finite() {
            return Err(bad(&format!("spacing[{a}] is not finite ({s})")));
        }
        if s <= 0.0 {
            return Err(bad(&format!("spacing[{a}] must be positive (got {s})")));
        }
    }
    if !origin.iter().all(|o| o.is_finite()) {
        return Err(bad("origin is not finite"));
    }
    // Reject dimension overflow *before* sizing the allocation: a hostile
    // header like `dims 4294967295 4294967295 4294967295` must not wrap the
    // voxel count into a small number (or abort on an oversized Vec).
    let n = dims[0]
        .checked_mul(dims[1])
        .and_then(|xy| xy.checked_mul(dims[2]))
        .ok_or_else(|| bad("dims overflow: voxel count exceeds addressable memory"))?;
    // Read through `take(n)` into a growing buffer: the header's promise is
    // untrusted, so memory follows the bytes that actually arrive.
    let mut buf = Vec::new();
    br.take(n as u64).read_to_end(&mut buf)?;
    if buf.len() != n {
        return Err(bad(&format!(
            "truncated data: header promises {n} bytes, got {}",
            buf.len()
        )));
    }
    if buf.iter().all(|&b| b == 0) {
        return Err(bad("empty label set: image has no foreground voxels"));
    }

    let mut img = LabeledImage::new(dims, spacing);
    img.set_origin(Point3::new(origin[0], origin[1], origin[2]));
    for k in 0..dims[2] {
        for j in 0..dims[1] {
            for i in 0..dims[0] {
                img.set(i, j, k, buf[(k * dims[1] + j) * dims[0] + i]);
            }
        }
    }
    Ok(img)
}

/// Save to a file path.
pub fn save(img: &LabeledImage, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    write_pim(img, &mut w)?;
    w.flush()
}

/// Load from a file path.
pub fn load(path: impl AsRef<Path>) -> io::Result<LabeledImage> {
    read_pim(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phantoms;

    #[test]
    fn roundtrip_in_memory() {
        let img = phantoms::nested_spheres(12, 0.5);
        let mut buf = Vec::new();
        write_pim(&img, &mut buf).unwrap();
        let back = read_pim(&buf[..]).unwrap();
        assert_eq!(back.dims(), img.dims());
        assert_eq!(back.spacing(), img.spacing());
        assert_eq!(back.data(), img.data());
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_pim(&b"not an image"[..]).is_err());
        assert!(read_pim(&b"PI2M-IMAGE 1\ndims 4 4 4\ndata\nxx"[..]).is_err());
    }

    /// Build a header + one foreground voxel of data with the given
    /// spacing/origin lines, for exercising the load-time validation.
    fn pim_bytes(spacing: &str, origin: &str) -> Vec<u8> {
        let mut b = format!("PI2M-IMAGE 1\ndims 1 1 1\n{spacing}\n{origin}\ndata\n").into_bytes();
        b.push(1u8);
        b
    }

    fn err_of(bytes: &[u8]) -> String {
        read_pim(bytes).unwrap_err().to_string()
    }

    #[test]
    fn rejects_zero_spacing() {
        let e = err_of(&pim_bytes("spacing 0 1 1", "origin 0 0 0"));
        assert!(e.contains("spacing[0] must be positive"), "{e}");
    }

    #[test]
    fn rejects_negative_spacing() {
        let e = err_of(&pim_bytes("spacing 1 -0.5 1", "origin 0 0 0"));
        assert!(e.contains("spacing[1] must be positive"), "{e}");
    }

    #[test]
    fn rejects_nan_spacing() {
        let e = err_of(&pim_bytes("spacing 1 1 NaN", "origin 0 0 0"));
        assert!(e.contains("spacing[2] is not finite"), "{e}");
    }

    #[test]
    fn rejects_infinite_origin() {
        let e = err_of(&pim_bytes("spacing 1 1 1", "origin 0 inf 0"));
        assert!(e.contains("origin is not finite"), "{e}");
    }

    #[test]
    fn rejects_dimension_overflow() {
        let big = usize::MAX / 2;
        let hdr = format!("PI2M-IMAGE 1\ndims {big} {big} 2\nspacing 1 1 1\ndata\n");
        let e = err_of(hdr.as_bytes());
        assert!(e.contains("dims overflow"), "{e}");
    }

    #[test]
    fn rejects_oversized_header_without_allocating_it() {
        // 10^12 promised bytes: allocating them up front would abort
        let hdr = b"PI2M-IMAGE 1\ndims 100000 100000 100\nspacing 1 1 1\ndata\n\x01\x01";
        let e = read_pim(&hdr[..]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let e = e.to_string();
        assert!(e.contains("1000000000000 bytes, got 2"), "{e}");
    }

    #[test]
    fn rejects_empty_label_set() {
        let bytes = b"PI2M-IMAGE 1\ndims 2 1 1\nspacing 1 1 1\ndata\n\0\0";
        let e = err_of(bytes);
        assert!(e.contains("empty label set"), "{e}");
    }

    #[test]
    fn file_roundtrip() {
        let img = phantoms::sphere(10, 1.0);
        let dir = std::env::temp_dir().join("pi2m_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.pim");
        save(&img, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.data(), img.data());
        std::fs::remove_file(&path).ok();
    }
}
