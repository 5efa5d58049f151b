//! The text parsers at the front doors — the `.pim` image loader, the
//! fault-plan parser and the duration parser — take arbitrary input and
//! either accept it or return their typed error: they never panic, and
//! never allocate more than the input justifies.

use pi2m::faults::FaultPlan;
use pi2m::image::io::{read_pim, write_pim};
use pi2m::image::phantoms;
use pi2m::serve::parse_duration_str;
use proptest::prelude::*;

/// `len` bytes of a xorshift stream seeded by `seed`.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Bytes that reach further into a text parser than noise: digits, signs,
/// separators and the letters of units and keys.
const SYNTAX: &[u8] = b"0123456789-+.eE \n\t=,;*xmsinaf";

/// `len` bytes drawn from [`SYNTAX`].
fn syntax(len: usize, seed: u64) -> Vec<u8> {
    noise(len, seed)
        .into_iter()
        .map(|b| SYNTAX[b as usize % SYNTAX.len()])
        .collect()
}

/// `valid` after `edits` byte edits drawn from `seed`: each overwrites,
/// inserts or deletes one byte, and half of the written bytes come from
/// [`SYNTAX`].
fn mutate(valid: &[u8], edits: usize, seed: u64) -> Vec<u8> {
    let mut out = valid.to_vec();
    for d in noise(4 * edits, seed).chunks(4) {
        let at = (u16::from_le_bytes([d[0], d[1]]) as usize) % (out.len() + 1);
        let byte = match d[3] % 2 {
            0 => SYNTAX[d[2] as usize % SYNTAX.len()],
            _ => d[2],
        };
        match d[3] % 3 {
            0 if at < out.len() => out[at] = byte,
            1 if at < out.len() => {
                out.remove(at);
            }
            _ => out.insert(at, byte),
        }
    }
    out
}

/// A small valid `.pim` file: an 8³ sphere, 512 data bytes.
fn valid_pim() -> Vec<u8> {
    let mut bytes = Vec::new();
    write_pim(&phantoms::sphere(8, 1.0), &mut bytes).unwrap();
    bytes
}

/// `read_pim` fails only with `InvalidData`, and an image it accepts holds
/// no more voxels than the bytes it was given.
fn check_pim(bytes: &[u8]) {
    match read_pim(bytes) {
        Ok(img) => {
            let [x, y, z] = img.dims();
            assert!(x * y * z <= bytes.len());
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
}

/// A valid plan touching every key the parser reads.
const VALID_PLAN: &str = "site=delaunay.lock.acquire,kind=deny,every=400;\
     site=serve.*,kind=delay,delay_ms=5,count=2,prob=0.5;\
     site=refine.engine.op,kind=panic,nth=3";

/// `FaultPlan::parse` fails only with a message naming the rule.
fn check_plan(spec: &[u8]) {
    let spec = String::from_utf8_lossy(spec);
    if let Err(e) = FaultPlan::parse(7, &spec) {
        assert!(e.starts_with("rule "), "{spec:?}: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn read_pim_never_panics_on_noise(len in 0usize..300, seed in any::<u64>()) {
        let bytes = noise(len, seed);
        check_pim(&bytes);
        // noise and header syntax behind a valid magic line reach the
        // header parser
        check_pim(&[b"PI2M-IMAGE 1\n".as_slice(), &bytes].concat());
        check_pim(&[b"PI2M-IMAGE 1\n".as_slice(), &syntax(len, seed)].concat());
    }

    #[test]
    fn read_pim_never_panics_on_mutations(
        edits in 1usize..8,
        seed in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let valid = valid_pim();
        check_pim(&mutate(&valid, edits, seed));
        check_pim(&valid[..cut % (valid.len() + 1)]);
    }

    /// A header whose dims promise more bytes than arrive is refused as
    /// truncated, whatever it promises: memory follows the bytes that do.
    #[test]
    fn read_pim_refuses_a_promise_past_the_bytes(
        dims in proptest::array::uniform3(1usize..1 << 20),
        len in 0usize..64,
        seed in any::<u64>(),
    ) {
        proptest::prop_assume!(dims[0] * dims[1] * dims[2] > len);
        let text = format!(
            "PI2M-IMAGE 1\ndims {} {} {}\nspacing 1 1 1\norigin 0 0 0\ndata\n",
            dims[0], dims[1], dims[2]
        );
        let bytes = [text.as_bytes(), &noise(len, seed)].concat();
        let err = read_pim(bytes.as_slice()).unwrap_err();
        prop_assert!(err.to_string().starts_with("truncated data"), "{}", err);
    }

    #[test]
    fn fault_plan_parse_never_panics_on_noise(len in 0usize..120, seed in any::<u64>()) {
        check_plan(&noise(len, seed));
        check_plan(&syntax(len, seed));
    }

    #[test]
    fn fault_plan_parse_never_panics_on_mutations(edits in 1usize..8, seed in any::<u64>()) {
        check_plan(&mutate(VALID_PLAN.as_bytes(), edits, seed));
    }

    /// A duration parses to a positive finite number of seconds or is
    /// refused.
    #[test]
    fn parse_duration_never_panics(len in 0usize..16, seed in any::<u64>()) {
        for bytes in [noise(len, seed), syntax(len, seed)] {
            let s = String::from_utf8_lossy(&bytes);
            if let Ok(secs) = parse_duration_str(&s) {
                prop_assert!(secs.is_finite() && secs > 0.0, "{s:?} -> {secs}");
            }
        }
    }
}

#[test]
fn the_seed_inputs_are_valid() {
    assert!(read_pim(valid_pim().as_slice()).is_ok());
    assert!(FaultPlan::parse(7, VALID_PLAN).is_ok());
    assert_eq!(parse_duration_str("250ms"), Ok(0.25));
}
