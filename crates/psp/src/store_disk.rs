//! Persistent PSP store: one write-ahead log wrapped around the
//! in-memory [`PspServer`].
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   wal.log    append-only record log (see [`crate::wal`]), blobs included
//! ```
//!
//! Photo bitstreams and parameter blobs live inside the log as
//! [`WalRecord::Blob`] frames keyed by their SHA-256, and each distinct
//! blob is logged once: a re-upload of identical bytes frames only its
//! `Upload` record. The hash must be collision-resistant — dedup trusts
//! it, so with a craftable hash (FNV, CRC) one uploader could pre-log a
//! colliding blob and alias a later upload's content. Stores from builds
//! that kept blobs in a `segments/` directory do not open.
//!
//! # Durability protocol
//!
//! 1. apply the change to the in-memory [`PspServer`];
//! 2. append `[Blob(bytes)] [Blob(params)] Upload|Transform` — blobs the
//!    log already holds left out — with one `write_all`, then one
//!    `sync_data`;
//! 3. acknowledge the client.
//!
//! A crash before (2) completes loses only unacknowledged work: it tears
//! at most that final batch, which replay truncates. The store directory
//! is fsynced once, when `wal.log` is created, so the log's own name is
//! durable too. Recovery ([`DiskStore::open`]) streams the log in order,
//! re-checks every blob's SHA-256, and rebuilds the server — each photo
//! reinstated under the SHA-256 pair its record names, which is its
//! content identity in memory too — and the grant mailbox verbatim; it fails
//! loudly on a bad frame with intact frames after it. Serving reads
//! (`download`, `download_transformed`, …) never touch the disk — they hit
//! the in-memory sharded store and transform cache, so persistence costs
//! writes only.

use crate::net::proto::{hex, MAX_FRAME_LEN};
use crate::store::{ContentId, PhotoId, PspConfig, PspServer};
use crate::wal::{Batch, Wal, WalRecord};
use crate::{PspError, Result};
use puppies_transform::Transformation;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// What [`DiskStore::open`] found while recovering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// State changes replayed (every intact record except blobs).
    pub records: u64,
    /// Photos live after replay.
    pub photos: u64,
    /// Bytes of torn WAL tail truncated away.
    pub truncated_bytes: u64,
}

/// A mailbox of encrypted grants addressed to one receiver public value.
#[derive(Debug, Default, Clone)]
pub struct Mailbox {
    /// `(sender DH public, ciphertext)` deposits, oldest first.
    pub deposits: Vec<(u128, Vec<u8>)>,
}

#[derive(Debug, Default)]
struct GrantState {
    /// token bytes → receiver DH public value.
    tokens: HashMap<[u8; 32], u128>,
    /// receiver DH public value → pending deposits.
    mailboxes: HashMap<u128, Mailbox>,
}

/// The persistent server: [`PspServer`] semantics, plus every
/// acknowledged mutation is durable and recoverable.
#[derive(Debug)]
pub struct DiskStore {
    server: PspServer,
    wal: Mutex<Wal>,
    grants: Mutex<GrantState>,
    /// SHA-256 of every blob the log holds durably (rebuilt at replay):
    /// a blob in here is never framed again.
    logged: Mutex<HashSet<[u8; 32]>>,
    recovery: RecoveryStats,
    /// Whether WAL commits sync (the setting from [`DiskStore::open`]).
    fsync: bool,
    /// Durability-path failures (WAL append/sync) since open. Nonzero
    /// means acknowledged-durability can no longer be promised, so
    /// `/readyz` reports the store degraded.
    io_failures: AtomicU64,
}

fn io_err(e: io::Error, what: &str) -> PspError {
    PspError::Channel(format!("{what}: {e}"))
}

/// Refuses a payload too large for one WAL frame — the wire's own cap,
/// so over the wire only a transform that grows a photo (an upscale) can
/// meet it.
fn fit_one_frame(blobs: [&[u8]; 2]) -> Result<()> {
    match blobs.iter().map(|b| b.len()).max() {
        Some(len) if len > MAX_FRAME_LEN => Err(PspError::Channel(format!(
            "a {len}-byte blob exceeds the store's {MAX_FRAME_LEN}-byte cap"
        ))),
        _ => Ok(()),
    }
}

fn corrupt(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `dir`, replaying the
    /// WAL: every acknowledged upload/transform/grant is reinstated, a
    /// torn tail is truncated. `fsync` should be `true` everywhere except
    /// tests/benches that measure something other than disk latency.
    ///
    /// # Errors
    /// Fails on filesystem errors, on a store written by an older build
    /// (a `segments/` directory), and on a log that is corrupt before its
    /// tail: a bad frame (a blob failing its SHA-256 included) followed
    /// by intact ones, or a record naming a blob the log does not hold.
    pub fn open(dir: &Path, config: PspConfig, fsync: bool) -> Result<DiskStore> {
        if dir.join("segments").is_dir() {
            return Err(PspError::Channel(format!(
                "{} holds a segments/ directory from an older build; this build keeps \
                 photo blobs inside wal.log and cannot open that store",
                dir.display()
            )));
        }
        fs::create_dir_all(dir).map_err(|e| io_err(e, "creating store dir"))?;
        let wal_path = dir.join("wal.log");
        let created = !wal_path.exists();
        let server = PspServer::with_config(config);
        let mut grants = GrantState::default();
        // Blobs by SHA-256 as replay meets them. Held until open returns
        // because a later record may name any earlier blob (dedup).
        let mut blobs: HashMap<[u8; 32], Arc<[u8]>> = HashMap::new();
        let mut records = 0u64;
        let truncated_bytes = Wal::replay(&wal_path, |record| {
            let blob = |sha: &[u8; 32], id: u64| {
                blobs.get(sha).cloned().ok_or_else(|| {
                    corrupt(format!(
                        "record for photo {id} names blob {} that the log does not hold",
                        hex(sha)
                    ))
                })
            };
            match record {
                // `Wal::replay` has checked the content against `sha`.
                WalRecord::Blob { sha, bytes } => {
                    blobs.insert(sha, bytes.into());
                    return Ok(());
                }
                WalRecord::Upload {
                    id,
                    bytes_sha,
                    params_sha,
                }
                | WalRecord::Transform {
                    id,
                    bytes_sha,
                    params_sha,
                } => {
                    let (bytes, params) = (blob(&bytes_sha, id)?, blob(&params_sha, id)?);
                    let content = ContentId {
                        bytes_sha,
                        params_sha,
                    };
                    server.put_at(PhotoId(id), bytes, params, content);
                }
                WalRecord::Receiver { dh_public, token } => {
                    grants.tokens.insert(token, dh_public);
                }
                WalRecord::GrantDeposit {
                    receiver,
                    sender,
                    ciphertext,
                } => {
                    grants
                        .mailboxes
                        .entry(receiver)
                        .or_default()
                        .deposits
                        .push((sender, ciphertext));
                }
                WalRecord::GrantDrain { receiver } => {
                    grants.mailboxes.remove(&receiver);
                }
            }
            records += 1;
            Ok(())
        })
        .map_err(|e| io_err(e, "replaying wal"))?;
        let recovery = RecoveryStats {
            records,
            photos: server.len() as u64,
            truncated_bytes,
        };
        let wal = Wal::open(&wal_path, fsync).map_err(|e| io_err(e, "opening wal"))?;
        if created && fsync {
            fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| io_err(e, "syncing store dir"))?;
        }
        Ok(DiskStore {
            server,
            wal: Mutex::new(wal),
            grants: Mutex::new(grants),
            logged: Mutex::new(blobs.into_keys().collect()),
            recovery,
            fsync,
            io_failures: AtomicU64::new(0),
        })
    }

    /// Durability-path failures (WAL appends/syncs) since open. See
    /// [`DiskStore::io_healthy`].
    pub fn io_failures(&self) -> u64 {
        self.io_failures.load(Ordering::Relaxed)
    }

    /// `true` while every durability-path write has succeeded. Once a WAL
    /// write fails the store keeps serving reads but stops claiming
    /// readiness — acknowledged writes may no longer be durable.
    pub fn io_healthy(&self) -> bool {
        self.io_failures() == 0
    }

    /// Whether per-append fsync is on (the durable configuration).
    pub fn fsync_enabled(&self) -> bool {
        self.fsync
    }

    /// Counts durability-path failures as they propagate.
    fn note_io<T>(&self, r: Result<T>) -> Result<T> {
        if r.is_err() {
            self.io_failures.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// The in-memory server behind this store — read-only doors
    /// (`download`, `download_params`, `download_transformed`, stats)
    /// are safe to call directly; mutations must go through
    /// [`DiskStore::upload`] / [`DiskStore::transform`] to stay durable.
    pub fn server(&self) -> &PspServer {
        &self.server
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Durable upload: the blobs and the `Upload` record are written and
    /// synced as one batch before the id is returned, so an acknowledged
    /// upload survives `kill -9`.
    ///
    /// # Errors
    /// Fails on id exhaustion or filesystem errors.
    pub fn upload(&self, bytes: Vec<u8>, params: Vec<u8>) -> Result<PhotoId> {
        fit_one_frame([&bytes, &params])?;
        let content = ContentId::of(&bytes, &params);
        let mut batch = self.blob_batch(content, [&bytes, &params]);
        let id = self.server.upload_hashed(bytes, params.into(), content)?;
        batch.record(&WalRecord::Upload {
            id: id.0,
            bytes_sha: content.bytes_sha,
            params_sha: content.params_sha,
        });
        self.commit(&batch, content)?;
        Ok(id)
    }

    /// Durable in-place transform: runs [`PspServer::transform`], then
    /// logs the rewritten blobs and the `Transform` record as one synced
    /// batch before returning.
    ///
    /// # Errors
    /// Fails like the in-memory transform (unknown photo, chain attempt,
    /// codec errors) or on filesystem errors.
    pub fn transform(&self, id: PhotoId, t: &Transformation) -> Result<()> {
        let ((old_bytes, old_params), old_content) = self.server.stored(id)?;
        self.server.transform(id, t)?;
        // Chains are rejected and concurrent double transforms refused, so
        // the pair now stored is exactly this transform's output, and the
        // server has already hashed it.
        let ((bytes, params), content) = self.server.stored(id)?;
        let logged = fit_one_frame([&bytes, &params]).and_then(|()| {
            let mut batch = self.blob_batch(content, [&bytes, &params]);
            batch.record(&WalRecord::Transform {
                id: id.0,
                bytes_sha: content.bytes_sha,
                params_sha: content.params_sha,
            });
            self.commit(&batch, content)
        });
        if logged.is_err() {
            // Not durable (an upscale past the blob cap, or a failed
            // write): serve what the log holds.
            self.server.put_at(id, old_bytes, old_params, old_content);
        }
        logged
    }

    /// Starts a batch with a `Blob` frame for each blob the log does not
    /// hold yet, with room left for the record that names them.
    fn blob_batch(&self, content: ContentId, blobs: [&[u8]; 2]) -> Batch {
        let shas = [content.bytes_sha, content.params_sha];
        let fresh = {
            let logged = self.logged.lock().unwrap_or_else(PoisonError::into_inner);
            [
                !logged.contains(&shas[0]),
                !logged.contains(&shas[1]) && shas[1] != shas[0],
            ]
        };
        let frames: usize = blobs.iter().map(|b| Batch::blob_frame_len(b.len())).sum();
        let mut batch = Batch::with_capacity(frames + 128);
        for i in 0..2 {
            if fresh[i] {
                batch.blob(&shas[i], blobs[i]);
            } else {
                // An exact duplicate of a logged blob costs no disk bytes;
                // counted so the dedup layer's savings show up on /metrics
                // alongside the in-memory interner's.
                puppies_obs::counted!("psp.sig.segment_shared");
            }
        }
        batch
    }

    /// Commits a blob batch; once it is durable its blobs count as logged.
    fn commit(&self, batch: &Batch, content: ContentId) -> Result<()> {
        let r = self
            .wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .commit(batch)
            .map_err(|e| io_err(e, "appending wal"));
        if r.is_ok() {
            self.logged
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend([content.bytes_sha, content.params_sha]);
        }
        self.note_io(r)
    }

    /// Registers a receiver token for a DH public value (durable).
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn register_receiver(&self, dh_public: u128, token: [u8; 32]) -> Result<()> {
        // Like every grant-state mutation: WAL append under the grants
        // lock, so log order always matches in-memory order.
        let mut grants = self.grants.lock().unwrap_or_else(PoisonError::into_inner);
        self.append(&WalRecord::Receiver { dh_public, token })?;
        grants.tokens.insert(token, dh_public);
        Ok(())
    }

    /// The DH public value a token authenticates, if the token is known.
    pub fn receiver_for_token(&self, token: &[u8]) -> Option<u128> {
        let token: [u8; 32] = token.try_into().ok()?;
        self.grants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .tokens
            .get(&token)
            .copied()
    }

    /// Deposits an end-to-end-encrypted grant in a receiver's mailbox
    /// (durable). The PSP never sees the plaintext.
    ///
    /// # Errors
    /// Fails on filesystem errors or a ciphertext over the wire's cap.
    pub fn deposit_grant(&self, receiver: u128, sender: u128, ciphertext: Vec<u8>) -> Result<()> {
        fit_one_frame([&ciphertext, &[]])?;
        // The grants lock is held across the WAL append: if a deposit
        // could slip its record in between a concurrent drain's mailbox
        // removal and that drain's GrantDrain append, replay would order
        // the deposit *before* the drain and silently drop acknowledged
        // mail on recovery.
        let mut grants = self.grants.lock().unwrap_or_else(PoisonError::into_inner);
        self.append(&WalRecord::GrantDeposit {
            receiver,
            sender,
            ciphertext: ciphertext.clone(),
        })?;
        grants
            .mailboxes
            .entry(receiver)
            .or_default()
            .deposits
            .push((sender, ciphertext));
        Ok(())
    }

    /// Drains a receiver's mailbox: returns and removes every pending
    /// deposit (durable — the drain is logged so a restart does not
    /// resurrect fetched grants).
    ///
    /// # Errors
    /// Fails on filesystem errors.
    pub fn drain_grants(&self, receiver: u128) -> Result<Vec<(u128, Vec<u8>)>> {
        // Remove-and-log under one critical section (see deposit_grant
        // for why the lock must span the append).
        let mut grants = self.grants.lock().unwrap_or_else(PoisonError::into_inner);
        let pending = match grants.mailboxes.remove(&receiver) {
            Some(mb) if !mb.deposits.is_empty() => mb.deposits,
            _ => return Ok(Vec::new()),
        };
        if let Err(e) = self.append(&WalRecord::GrantDrain { receiver }) {
            // Logging failed: put the mail back so nothing is lost.
            grants.mailboxes.entry(receiver).or_default().deposits = pending;
            return Err(e);
        }
        Ok(pending)
    }

    /// Pending deposits for a receiver without draining (diagnostics).
    pub fn peek_grants(&self, receiver: u128) -> usize {
        self.grants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .mailboxes
            .get(&receiver)
            .map_or(0, |m| m.deposits.len())
    }

    /// Forces the WAL to disk (graceful-shutdown path when per-append
    /// fsync is off).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn sync(&self) -> Result<()> {
        let r = self
            .wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sync()
            .map_err(|e| io_err(e, "syncing wal"));
        self.note_io(r)
    }

    fn append(&self, record: &WalRecord) -> Result<()> {
        let r = self
            .wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(record)
            .map_err(|e| io_err(e, "appending wal"));
        self.note_io(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "puppies_disk_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> DiskStore {
        DiskStore::open(dir, PspConfig::default(), false).unwrap()
    }

    #[test]
    fn upload_survives_reopen() {
        let dir = tmp("reopen");
        let (a, b);
        {
            let store = open(&dir);
            a = store.upload(vec![1, 2, 3, 4], vec![9, 9]).unwrap();
            b = store.upload(vec![5; 100], vec![]).unwrap();
        }
        let store = open(&dir);
        assert_eq!(store.recovery().records, 2);
        assert_eq!(store.recovery().photos, 2);
        assert_eq!(store.recovery().truncated_bytes, 0);
        assert_eq!(store.server().download(a).unwrap().as_ref(), &[1, 2, 3, 4]);
        assert_eq!(store.server().download(b).unwrap().as_ref(), &[5u8; 100]);
        assert_eq!(
            store.server().download_params(a).unwrap().as_ref(),
            &[9u8, 9]
        );
        // Ids keep allocating past the recovered range.
        let c = store.upload(vec![7], vec![]).unwrap();
        assert!(c > b);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_loses_only_the_torn_record() {
        let dir = tmp("torn");
        {
            let store = open(&dir);
            store.upload(vec![1, 1, 1], vec![]).unwrap();
            store.upload(vec![2, 2, 2], vec![]).unwrap();
        }
        // Crash mid-append: garbage tail on the log.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("wal.log"))
                .unwrap();
            f.write_all(&[0x77, 0x88]).unwrap();
        }
        let store = open(&dir);
        assert_eq!(store.recovery().truncated_bytes, 2);
        assert_eq!(store.recovery().photos, 2);
        assert_eq!(
            store.server().download(PhotoId(0)).unwrap().as_ref(),
            &[1, 1, 1]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transform_is_durable_and_replays_as_overwrite() {
        use puppies_core::{protect, OwnerKey, ProtectOptions};
        use puppies_image::{Rect, Rgb, RgbImage};
        let dir = tmp("transform");
        let img = RgbImage::from_fn(64, 64, |x, y| Rgb::new(x as u8 * 2, y as u8, 3));
        let protected = protect(
            &img,
            &[Rect::new(8, 8, 16, 16)],
            &OwnerKey::from_seed([5u8; 32]),
            &ProtectOptions::default(),
        )
        .unwrap();
        let id;
        let after: Vec<u8>;
        {
            let store = open(&dir);
            id = store
                .upload(protected.bytes.clone(), protected.params.to_bytes())
                .unwrap();
            store.transform(id, &Transformation::Rotate180).unwrap();
            after = store.server().download(id).unwrap().to_vec();
            assert_ne!(after, protected.bytes);
        }
        let store = open(&dir);
        assert_eq!(store.recovery().records, 2);
        assert_eq!(store.recovery().photos, 1);
        assert_eq!(store.server().download(id).unwrap().as_ref(), &after[..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_content_is_logged_once() {
        let dir = tmp("dedup");
        let wal_len = || fs::metadata(dir.join("wal.log")).unwrap().len();
        {
            let store = open(&dir);
            store.upload(vec![42; 500], vec![7]).unwrap();
            let first = wal_len();
            store.upload(vec![42; 500], vec![7]).unwrap();
            // The second upload logs only its 85-byte `Upload` frame.
            assert_eq!(wal_len() - first, 85);
        }
        // Dedup survives a restart: the replayed set still knows both blobs.
        let before = wal_len();
        let store = open(&dir);
        assert_eq!(store.recovery().records, 2);
        let c = store.upload(vec![42; 500], vec![7]).unwrap();
        assert_eq!(wal_len() - before, 85);
        drop(store);
        let store = open(&dir);
        assert_eq!(store.server().download(c).unwrap().as_ref(), &[42u8; 500]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payloads_at_the_wire_cap_survive_reopen() {
        let dir = tmp("cap");
        let bytes = vec![0xC3; MAX_FRAME_LEN];
        let id = {
            let store = open(&dir);
            store.deposit_grant(5, 6, bytes.clone()).unwrap();
            store.upload(bytes.clone(), vec![1]).unwrap()
        };
        let store = open(&dir);
        assert_eq!(store.server().download(id).unwrap().as_ref(), &bytes[..]);
        assert_eq!(store.drain_grants(5).unwrap(), vec![(6, bytes)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_upload_over_the_wire_cap_is_refused_and_not_logged() {
        let dir = tmp("overcap");
        let store = open(&dir);
        assert!(store.upload(vec![0; MAX_FRAME_LEN + 1], vec![]).is_err());
        assert_eq!(fs::metadata(dir.join("wal.log")).unwrap().len(), 0);
        assert!(store.server().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_from_older_builds_fail_to_open() {
        let dir = tmp("older");
        fs::create_dir_all(dir.join("segments")).unwrap();
        let err = DiskStore::open(&dir, PspConfig::default(), false).unwrap_err();
        assert!(err.to_string().contains("older build"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn grant_mailbox_is_durable_and_drains_once() {
        let dir = tmp("grants");
        let token = *b"aaaabbbbccccddddeeeeffff00001111";
        {
            let store = open(&dir);
            store.register_receiver(1234, token).unwrap();
            store.deposit_grant(1234, 99, vec![1, 2, 3]).unwrap();
            store.deposit_grant(1234, 98, vec![4, 5]).unwrap();
            store.deposit_grant(5678, 99, vec![6]).unwrap();
        }
        {
            let store = open(&dir);
            assert_eq!(store.receiver_for_token(&token), Some(1234));
            assert_eq!(store.peek_grants(1234), 2);
            let got = store.drain_grants(1234).unwrap();
            assert_eq!(got, vec![(99, vec![1, 2, 3]), (98, vec![4, 5])]);
            assert!(store.drain_grants(1234).unwrap().is_empty());
        }
        // The drain was logged: a restart does not resurrect the mail.
        let store = open(&dir);
        assert_eq!(store.peek_grants(1234), 0);
        assert_eq!(store.peek_grants(5678), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_deposits_and_drains_replay_to_the_acknowledged_state() {
        // Regression probe for the deposit/drain WAL-ordering race: a
        // deposit acknowledged between a drain's mailbox removal and the
        // drain's WAL append would replay as deposit-then-drain and
        // vanish on recovery. With the append under the grants lock,
        // replay must land exactly on the pre-shutdown in-memory state.
        let dir = tmp("grant_race");
        let (drained, live) = {
            let store = std::sync::Arc::new(open(&dir));
            let mut writers = Vec::new();
            for t in 0..4u8 {
                let store = std::sync::Arc::clone(&store);
                writers.push(std::thread::spawn(move || {
                    for i in 0..50u8 {
                        store.deposit_grant(7, u128::from(t), vec![t, i]).unwrap();
                    }
                }));
            }
            let drainer = {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut drained = 0usize;
                    for _ in 0..200 {
                        drained += store.drain_grants(7).unwrap().len();
                        std::thread::yield_now();
                    }
                    drained
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            let drained = drainer.join().unwrap();
            (drained, store.peek_grants(7))
        };
        assert_eq!(drained + live, 200, "every deposit was acknowledged");
        let store = open(&dir);
        assert_eq!(store.peek_grants(7), live);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_blob_byte_detected_at_recovery() {
        let dir = tmp("tamper");
        {
            let store = open(&dir);
            store.upload(vec![9; 64], vec![]).unwrap();
            store.upload(vec![8; 64], vec![]).unwrap();
        }
        // Flip a byte inside the first photo's logged bitstream: it fails
        // its SHA-256 and intact frames follow, so this is not a torn tail
        // and must not be truncated away.
        let mut log = fs::read(dir.join("wal.log")).unwrap();
        let at = log.windows(64).position(|w| w == [9; 64]).unwrap() + 10;
        let len = log.len();
        log[at] ^= 0xFF;
        fs::write(dir.join("wal.log"), &log).unwrap();
        let err = DiskStore::open(&dir, PspConfig::default(), false).unwrap_err();
        assert!(err.to_string().contains("wal corrupt"), "{err}");
        assert_eq!(
            fs::metadata(dir.join("wal.log")).unwrap().len() as usize,
            len
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
