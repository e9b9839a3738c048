//! `POST /search` answers probes of stored content from the signature
//! memo: the same `sig:` line and match list as decoding the probe, with
//! no decode. Every test installs the process-global metrics subscriber
//! and reads `psp.sig.*` counters, so they run one at a time.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::net::{Client, ServeConfig, Server};
use puppies_psp::sig::NEAR_DUP_DISTANCE;
use puppies_psp::{PhotoId, PspConfig, PspServer};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("puppies_search_memo_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn protected_photo(seed: u8) -> (Vec<u8>, Vec<u8>) {
    let img = RgbImage::from_fn(64, 48, |x, y| {
        Rgb::new(
            seed.wrapping_add((x * 3 + y) as u8),
            (x + y * 2) as u8,
            seed ^ (y as u8),
        )
    });
    let p = protect(
        &img,
        &[Rect::new(8, 8, 24, 16)],
        &OwnerKey::from_seed([seed; 32]),
        &ProtectOptions::default(),
    )
    .unwrap();
    (p.bytes, p.params.to_bytes())
}

/// A byte-distinct copy of the same picture (a near-duplicate).
fn recompress(bytes: &[u8], quality: u8) -> Vec<u8> {
    let mut coeff = puppies_jpeg::CoeffImage::decode(bytes).unwrap();
    coeff.requantize(quality);
    coeff
        .encode(&puppies_jpeg::EncodeOptions::default())
        .unwrap()
}

struct Running {
    addr: String,
    admin: String,
    join: JoinHandle<()>,
}

fn start(dir: &Path, psp: PspConfig) -> Running {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.to_path_buf(),
        fsync: false,
        psp,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || server.run().unwrap());
    let admin = std::fs::read_to_string(dir.join("admin.token"))
        .unwrap()
        .trim()
        .to_string();
    Running { addr, admin, join }
}

fn stop(run: Running) {
    let mut c = Client::connect(&run.addr).unwrap();
    c.shutdown(&run.admin).unwrap();
    run.join.join().unwrap();
}

fn counter(name: &str) -> u64 {
    puppies_obs::with(|obs| obs.metrics().counter(name).map_or(0, |c| c.get())).unwrap()
}

/// `(psp.sig.computed, psp.sig.search_memo_hit, psp.sig.search)`.
fn sig_counters() -> (u64, u64, u64) {
    (
        counter("psp.sig.computed"),
        counter("psp.sig.search_memo_hit"),
        counter("psp.sig.search"),
    )
}

/// What a search answers when it decodes the probe: the reference
/// [`PspServer::probe_signature`] matched against `reference`'s index.
fn decoded_answer(
    reference: &PspServer,
    bytes: &[u8],
    params: Option<&[u8]>,
) -> (u64, Vec<(PhotoId, u32)>) {
    let sig = PspServer::probe_signature(bytes, params).unwrap();
    (sig, reference.search_similar(sig, NEAR_DUP_DISTANCE, 256))
}

/// The photos every wire test stores, in upload order: an original with
/// params, its recompressed copy, and an unrelated photo with no params.
fn corpus() -> Vec<(Vec<u8>, Vec<u8>)> {
    let (bytes, params) = protected_photo(11);
    let copy = recompress(&bytes, 55);
    let (bare, _) = protected_photo(90);
    vec![(bytes, params.clone()), (copy, params), (bare, Vec::new())]
}

/// An in-process store holding `corpus()` under the same ids the wire
/// server hands out.
fn reference(config: PspConfig) -> PspServer {
    let server = PspServer::with_config(config);
    for (bytes, params) in corpus() {
        server.upload(bytes, params).unwrap();
    }
    server
}

fn upload_corpus(client: &mut Client) {
    for (id, (bytes, params)) in corpus().iter().enumerate() {
        assert_eq!(client.upload(bytes, params).unwrap().id, PhotoId(id as u64));
    }
}

#[test]
fn stored_content_probes_answer_from_the_memo_without_decoding() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("hit");
    let run = start(&dir, PspConfig::default());
    let session = puppies_obs::Obs::install();
    let mut client = Client::connect(&run.addr).unwrap();
    upload_corpus(&mut client);
    let reference = reference(PspConfig::default());
    let photos = corpus();

    // An empty blob on the wire stands for "no params"; the bare photo
    // is probed with both spellings of it.
    let probes: Vec<(&[u8], Option<&[u8]>)> = photos
        .iter()
        .map(|(b, p)| (b.as_slice(), (!p.is_empty()).then_some(p.as_slice())))
        .chain([(photos[2].0.as_slice(), Some(&[][..]))])
        .collect();
    let expected: Vec<_> = probes
        .iter()
        .map(|&(bytes, params)| decoded_answer(&reference, bytes, params))
        .collect();
    let before = sig_counters();
    for (&(bytes, params), expected) in probes.iter().zip(&expected) {
        let answer = client.search(bytes, params).unwrap();
        assert_eq!(&answer, expected);
        assert_eq!(answer.1[0].1, 0, "a stored photo is its own nearest match");
    }
    let after = sig_counters();
    let searches = after.2 - before.2;
    assert_eq!(searches, 4);
    assert_eq!(after.0, before.0, "no probe of stored content decoded");
    assert_eq!(
        after.1 - before.1,
        searches,
        "every search answered from memo"
    );

    drop(session.finish());
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_content_probes_decode_and_answer_as_before() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("miss");
    let run = start(&dir, PspConfig::default());
    let session = puppies_obs::Obs::install();
    let mut client = Client::connect(&run.addr).unwrap();
    upload_corpus(&mut client);
    let reference = reference(PspConfig::default());
    let (bytes, params) = corpus().swap_remove(0);

    // Stored bytes without their params, and a copy the store never saw.
    let copy = recompress(&bytes, 40);
    let probes = [(&bytes, None), (&copy, Some(params.as_slice()))];
    let expected: Vec<_> = probes
        .iter()
        .map(|&(probe, params)| decoded_answer(&reference, probe, params))
        .collect();
    assert!(!expected[1].1.is_empty(), "the copy matches its family");
    let before = sig_counters();
    for (&(probe, params), expected) in probes.iter().zip(&expected) {
        assert_eq!(&client.search(probe, params).unwrap(), expected);
    }
    assert!(
        client.search(&[1, 2, 3], None).is_err(),
        "undecodable probe is a 400"
    );
    let after = sig_counters();
    assert_eq!(after.0 - before.0, 2, "each decodable miss decoded once");
    assert_eq!(after.1, before.1, "no memo answer for unknown content");

    drop(session.finish());
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn signature_layer_off_search_decodes_and_still_answers() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = PspConfig {
        signature: false,
        ..PspConfig::default()
    };
    let dir = tmp("off");
    let run = start(&dir, config.clone());
    let session = puppies_obs::Obs::install();
    let mut client = Client::connect(&run.addr).unwrap();
    upload_corpus(&mut client);
    let reference = reference(config);
    let (bytes, params) = corpus().swap_remove(0);

    let expected = decoded_answer(&reference, &bytes, Some(&params));
    assert!(expected.1.is_empty(), "nothing is indexed");
    let before = sig_counters();
    assert_eq!(client.search(&bytes, Some(&params)).unwrap(), expected);
    let after = sig_counters();
    assert_eq!(after.0 - before.0, 1, "the probe was decoded");
    assert_eq!(after.1, before.1);

    drop(session.finish());
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memo_rebuilt_by_wal_replay_answers_stored_probes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("replay");
    let run = start(&dir, PspConfig::default());
    upload_corpus(&mut Client::connect(&run.addr).unwrap());
    stop(run);

    let session = puppies_obs::Obs::install();
    let run = start(&dir, PspConfig::default());
    let mut client = Client::connect(&run.addr).unwrap();
    let reference = reference(PspConfig::default());
    let (bytes, params) = corpus().swap_remove(0);

    let expected = decoded_answer(&reference, &bytes, Some(&params));
    let before = sig_counters();
    assert_eq!(client.search(&bytes, Some(&params)).unwrap(), expected);
    let after = sig_counters();
    assert_eq!(after.0, before.0, "replayed content is not decoded again");
    assert_eq!(after.1 - before.1, 1);

    drop(session.finish());
    stop(run);
    let _ = std::fs::remove_dir_all(&dir);
}
