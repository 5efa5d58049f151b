//! Flight-recorder stress test: eight writers push concurrently, each into
//! its own small ring (the SPSC discipline is per ring), lapping it many
//! times over. Once every writer has joined, the rings are drained once —
//! the recorder's one reader. The accounting must close exactly, and the
//! survivors must be each ring's newest events, in order and intact.

use pi2m_obs::flight::{EventKind, FlightRecorder};

const WRITERS: usize = 8;
const PER_WRITER: u32 = 120_000;
/// Small rings so every writer laps its ring many times.
const RING_CAP: usize = 1 << 10;

/// Payload invariant every pushed event satisfies.
fn expected_b(tid: u16, a: u32) -> u32 {
    a.wrapping_mul(0x9e37_79b1) ^ (tid as u32) ^ 0x5bd1_e995
}

#[test]
fn eight_writers_then_one_drain_accounts_for_every_push() {
    let rec = FlightRecorder::new(WRITERS, RING_CAP);
    std::thread::scope(|s| {
        for tid in 0..WRITERS {
            let h = rec.handle(tid);
            s.spawn(move || {
                for a in 0..PER_WRITER {
                    h.emit(EventKind::Rollback, 0, a, expected_b(tid as u16, a), !a);
                }
            });
        }
    });

    let cap = rec.ring(0).capacity() as u64;
    assert_eq!(cap, RING_CAP as u64);
    for t in 0..WRITERS {
        let ring = rec.ring(t);
        assert_eq!(ring.pushed(), PER_WRITER as u64);
        let r = ring.read_from(0);
        let seen = r.events.len() as u64;
        assert_eq!(
            seen + r.dropped,
            PER_WRITER as u64,
            "ring {t}: seen {seen} + dropped {} != pushed {PER_WRITER}",
            r.dropped
        );
        assert_eq!(seen, cap, "ring {t} must hold exactly its newest {cap}");
        assert_eq!(r.cursor, PER_WRITER as u64);
        for (e, a) in r.events.iter().zip(PER_WRITER - cap as u32..) {
            assert_eq!(e.kind, EventKind::Rollback);
            assert_eq!(e.tid as usize, t, "event crossed rings");
            assert_eq!(e.a, a, "ring {t}: survivors out of order");
            assert_eq!(e.b, expected_b(t as u16, a), "ring {t}: payload torn");
            assert_eq!(e.c, !a, "ring {t}: payload torn");
        }
    }

    // the merged drain agrees with the per-ring reads
    let log = rec.drain();
    assert_eq!(log.events.len() as u64, WRITERS as u64 * cap);
    assert_eq!(
        log.events.len() as u64 + log.dropped,
        WRITERS as u64 * PER_WRITER as u64
    );
    assert!(log.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
}
