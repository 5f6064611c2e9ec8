//! The engine checkpoint codec, end to end.
//!
//! * A pinned checkpoint: a fixed scenario stopped at a fixed simulated
//!   time must encode to exactly the committed length and 64-bit hash, so
//!   any change to the encoder (CRC, number rendering, store rendering)
//!   has to reproduce the established format byte for byte.
//! * Decoder robustness: damaged checkpoint bytes (flipped, truncated or
//!   spliced), with the CRC left stale or re-sealed so the body parser
//!   runs, decode (and, when the body still parses, restore into an
//!   engine) to `Ok` or a typed `SnapshotError`, never a panic.

use proptest::prelude::*;
use rush_sched::difftest::DiffScenario;
use rush_sched::engine::EngineTuning;
use rush_simkit::snapshot::{self, crc32};
use rush_simkit::time::SimTime;

/// Node crashes, performance faults, the online predictor service and a
/// learned queue order, so every section of the engine body is populated.
const SCENARIO: DiffScenario = DiffScenario {
    seed: 7,
    nodes: 32,
    jobs: 60,
    faults: true,
    perf_faults: true,
    online_predictor: true,
    learned_policy: true,
};

/// Where the pinned checkpoint is taken: the first step at or after this
/// simulated time.
const STOP_AT: SimTime = SimTime::from_secs(1_500);

/// Runs [`SCENARIO`] under `tuning` with tracing on until [`STOP_AT`] and
/// returns the engine's checkpoint there.
fn checkpoint(tuning: EngineTuning) -> Vec<u8> {
    let requests = SCENARIO.workload();
    let mut engine = SCENARIO.build_engine(tuning).with_tracing(1 << 16);
    engine.prepare(&requests);
    while let Some(now) = engine.step() {
        if now >= STOP_AT {
            break;
        }
    }
    engine.snapshot()
}

/// FNV-1a over bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn pinned_checkpoints_are_reproduced_byte_for_byte() {
    // Row-major telemetry blocks (the default) and per-series columns
    // (legacy) render the store through different paths; pin both.
    let pinned = [
        (
            "row-major",
            EngineTuning::default(),
            1_039_041,
            0x1d82_2c89_30f5_bff6,
        ),
        (
            "columnar",
            EngineTuning::legacy(),
            1_667_337,
            0x0033_04cf_981f_60df,
        ),
    ];
    for (layout, tuning, len, hash) in pinned {
        let bytes = checkpoint(tuning);
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, hash),
            "{layout} checkpoint changed: {} bytes, hash {:#018x}",
            bytes.len(),
            fnv1a64(&bytes)
        );
        assert_eq!(bytes[8..12], snapshot::FORMAT_VERSION.to_le_bytes());
    }
}

#[test]
fn pinned_checkpoint_survives_a_resume_round_trip() {
    let bytes = checkpoint(EngineTuning::default());
    let mut engine = SCENARIO
        .build_engine(EngineTuning::default())
        .with_tracing(1 << 16);
    engine.prepare(&SCENARIO.workload());
    engine
        .resume(&bytes)
        .expect("the pinned checkpoint resumes");
    assert!(
        engine.snapshot() == bytes,
        "resume then snapshot is not the identity"
    );
}

/// Offset of the body in an encoded snapshot (the fixed-size header).
const HEADER_LEN: usize = 44;

/// One way of damaging checkpoint bytes. Positions are fractions of the
/// length (in millionths) so the same case scales to any checkpoint.
#[derive(Debug, Clone)]
enum Damage {
    /// XOR one byte with a non-zero mask.
    Flip { at: u32, mask: u8 },
    /// Keep only a prefix.
    Truncate { keep: u32 },
    /// Overwrite a range with a copy of another range of the same bytes.
    Splice { from: u32, to: u32, len: u16 },
    /// Overwrite a body byte with one of the grammar's structural bytes,
    /// which reaches the parser's error paths far more often than noise.
    Structural { at: u32, byte: u8 },
}

/// Bytes with a meaning in the body grammar.
const STRUCTURAL: &[u8] = b"{}[],:\"\\ui-09";

fn damage() -> impl Strategy<Value = Damage> {
    let pos = 0u32..1_000_000;
    prop_oneof![
        (pos.clone(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip { at, mask }),
        pos.clone().prop_map(|keep| Damage::Truncate { keep }),
        (pos.clone(), pos.clone(), 1u16..512).prop_map(|(from, to, len)| Damage::Splice {
            from,
            to,
            len
        }),
        (pos, 0usize..STRUCTURAL.len()).prop_map(|(at, k)| Damage::Structural {
            at,
            byte: STRUCTURAL[k],
        }),
    ]
}

fn scale(millionths: u32, len: usize) -> usize {
    (millionths as u64 * len as u64 / 1_000_000) as usize
}

fn apply(bytes: &[u8], damage: &Damage) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match *damage {
        Damage::Flip { at, mask } => out[scale(at, bytes.len())] ^= mask,
        Damage::Truncate { keep } => out.truncate(scale(keep, bytes.len())),
        Damage::Splice { from, to, len } => {
            let from = scale(from, bytes.len());
            let to = scale(to, bytes.len());
            let len = usize::from(len)
                .min(bytes.len() - from)
                .min(bytes.len() - to);
            out[to..to + len].copy_from_slice(&bytes[from..from + len]);
        }
        Damage::Structural { at, byte } => {
            let body = bytes.len() - HEADER_LEN - 4;
            out[HEADER_LEN + scale(at, body)] = byte;
        }
    }
    out
}

/// Recomputes the trailing CRC (and, for a truncated file, the declared
/// body length) so the damaged body reaches the parser.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    if bytes.len() < HEADER_LEN + 4 {
        return bytes;
    }
    let body_len = (bytes.len() - HEADER_LEN - 4) as u64;
    bytes[36..44].copy_from_slice(&body_len.to_le_bytes());
    let payload = bytes.len() - 4;
    let crc = crc32(&bytes[..payload]);
    bytes[payload..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn damaged_checkpoints_decode_to_typed_errors(d in damage()) {
        thread_local! {
            static BYTES: Vec<u8> = checkpoint(EngineTuning::default());
        }
        BYTES.with(|bytes| -> Result<(), String> {
            let damaged = apply(bytes, &d);
            // Stale CRC: the envelope check must catch any real change.
            let stale = snapshot::decode(&damaged);
            if damaged != *bytes {
                prop_assert!(stale.is_err(), "undetected damage {d:?}");
            }
            prop_assert!(snapshot::validate(&damaged).is_err() == stale.is_err());
            // Re-sealed: the body parser sees the damage and must answer
            // with Ok or a typed error (a panic fails the test). A body
            // that still parses goes on to the engine's restore, which must
            // answer the same way.
            let resealed = reseal(damaged);
            if snapshot::decode(&resealed).is_ok() {
                let mut engine = SCENARIO.build_engine(EngineTuning::default());
                engine.prepare(&SCENARIO.workload());
                let _ = engine.resume(&resealed);
            }
            Ok(())
        })?;
    }
}
