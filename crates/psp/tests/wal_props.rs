//! Property tests for WAL recovery: any prefix of a recorded log —
//! including one torn mid-record — recovers exactly the records whose
//! frames are fully contained in the prefix, in order, losing nothing
//! that was acknowledged before the cut; and damage anywhere before the
//! final frame is an error, never a silently shorter log.

use proptest::prelude::*;
use puppies_psp::sha256::sha256;
use puppies_psp::wal::{scan, WalRecord};

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (any::<u64>(), any::<[u8; 32]>(), any::<[u8; 32]>()).prop_map(
            |(id, bytes_sha, params_sha)| WalRecord::Upload {
                id,
                bytes_sha,
                params_sha,
            }
        ),
        (any::<u64>(), any::<[u8; 32]>(), any::<[u8; 32]>()).prop_map(
            |(id, bytes_sha, params_sha)| WalRecord::Transform {
                id,
                bytes_sha,
                params_sha,
            }
        ),
        (any::<u128>(), any::<[u8; 32]>())
            .prop_map(|(dh_public, token)| WalRecord::Receiver { dh_public, token }),
        (
            any::<u128>(),
            any::<u128>(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(receiver, sender, ciphertext)| WalRecord::GrantDeposit {
                receiver,
                sender,
                ciphertext,
            }),
        any::<u128>().prop_map(|receiver| WalRecord::GrantDrain { receiver }),
        prop::collection::vec(any::<u8>(), 0..256).prop_map(|bytes| WalRecord::Blob {
            sha: sha256(&bytes),
            bytes,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cutting a valid log at any byte offset recovers exactly the
    /// records whose frames fit in the prefix — no lost acknowledged
    /// records before the cut, no phantom records after it.
    #[test]
    fn any_prefix_recovers_exactly_the_contained_records(
        records in prop::collection::vec(arb_record(), 0..12),
        cut_fraction in 0.0f64..=1.0,
    ) {
        let frames: Vec<Vec<u8>> = records.iter().map(WalRecord::to_frame).collect();
        let log: Vec<u8> = frames.concat();
        let cut = ((log.len() as f64) * cut_fraction) as usize;
        let prefix = &log[..cut.min(log.len())];

        // How many whole frames fit in the prefix?
        let mut fit = 0;
        let mut consumed = 0;
        for frame in &frames {
            if consumed + frame.len() <= prefix.len() {
                fit += 1;
                consumed += frame.len();
            } else {
                break;
            }
        }

        let (recovered, good) = scan(prefix).unwrap();
        prop_assert_eq!(recovered.len(), fit, "prefix of {} bytes", prefix.len());
        prop_assert_eq!(&recovered[..], &records[..fit]);
        // `good` is the clean-prefix end offset; everything past it is the
        // torn tail that replay truncates.
        prop_assert_eq!(good as usize, consumed);
    }

    /// Appending arbitrary garbage after a valid log never corrupts the
    /// recovered records: everything acknowledged still replays, and the
    /// garbage is reported as the truncatable tail (unless it happens to
    /// parse, in which case recovery keeps strictly more).
    #[test]
    fn garbage_tail_never_loses_acknowledged_records(
        records in prop::collection::vec(arb_record(), 0..8),
        garbage in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut log: Vec<u8> = records.iter().flat_map(|r| r.to_frame()).collect();
        log.extend_from_slice(&garbage);
        let (recovered, _) = scan(&log).unwrap();
        prop_assert!(recovered.len() >= records.len());
        prop_assert_eq!(&recovered[..records.len()], &records[..]);
    }

    /// Encode/decode of every record variant round-trips through the
    /// frame writer and the scanner.
    #[test]
    fn frames_roundtrip(records in prop::collection::vec(arb_record(), 0..16)) {
        let log: Vec<u8> = records.iter().flat_map(|r| r.to_frame()).collect();
        let (recovered, good) = scan(&log).unwrap();
        prop_assert_eq!(recovered, records);
        // A log of intact frames scans clean to its end: nothing torn.
        prop_assert_eq!(good as usize, log.len());
    }

    /// Flipping any bit of any byte of a frame that has another frame
    /// after it is mid-log corruption: replay must refuse the log rather
    /// than truncate it to the records before the flip.
    #[test]
    fn flipping_a_non_final_frame_is_an_error(
        records in prop::collection::vec(arb_record(), 2..8),
        victim in any::<u64>(),
        offset in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frames: Vec<Vec<u8>> = records.iter().map(WalRecord::to_frame).collect();
        let v = (victim % (frames.len() as u64 - 1)) as usize;
        let start: usize = frames[..v].iter().map(Vec::len).sum();
        let mut log = frames.concat();
        log[start + (offset % frames[v].len() as u64) as usize] ^= 1 << bit;
        let scanned = scan(&log);
        prop_assert!(scanned.is_err(), "flip in frame {} of {} recovered {:?}",
            v, frames.len(), scanned.map(|(r, _)| r.len()));
    }
}
