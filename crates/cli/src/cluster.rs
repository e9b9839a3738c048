//! `puppies cluster` — drive the k-of-n Shamir-shared PSP cluster from
//! the command line.
//!
//! ```text
//! puppies cluster demo [--shape n,k] [--uploads N]
//!         [--kill i]... [--corrupt i]... [--rebalance]
//! ```
//!
//! The demo uploads protected fixtures into an (n, k) cluster, applies
//! the requested faults, proves every acknowledged upload still
//! reconstructs byte-exactly from the surviving quorum, and (with
//! `--rebalance`) replaces the dead backends and re-shares at a new
//! generation. Exits nonzero if any reconstruction diverges.

use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::{Rect, Rgb, RgbImage};
use puppies_psp::{ClusterConfig, ClusterPhotoId, Fault, ShardedPspCluster};

pub fn cmd(args: &[String]) -> Result<(), String> {
    match crate::positionals(args).first() {
        Some(&"demo") => demo(args),
        other => Err(format!(
            "unknown cluster subcommand {other:?}; try `puppies cluster demo`"
        )),
    }
}

fn parse_shape(args: &[String]) -> Result<(usize, usize), String> {
    match crate::flag_value(args, "--shape") {
        Some(s) => {
            let (a, b) = s
                .split_once(',')
                .ok_or_else(|| format!("bad --shape {s:?}: expected n,k"))?;
            Ok((
                a.trim()
                    .parse()
                    .map_err(|e| format!("bad n in --shape: {e}"))?,
                b.trim()
                    .parse()
                    .map_err(|e| format!("bad k in --shape: {e}"))?,
            ))
        }
        None => Ok((5, 3)),
    }
}

fn parse_backends(args: &[String], flag: &str, n: usize) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for v in crate::flag_values(args, flag) {
        let i: usize = v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))?;
        if i >= n {
            return Err(format!("{flag} {i} out of range for n = {n}"));
        }
        out.push(i);
    }
    Ok(out)
}

fn demo(args: &[String]) -> Result<(), String> {
    let (n, k) = parse_shape(args)?;
    let uploads: usize = match crate::flag_value(args, "--uploads") {
        Some(v) => v.parse().map_err(|e| format!("bad --uploads {v:?}: {e}"))?,
        None => 4,
    };
    let kills = parse_backends(args, "--kill", n)?;
    let corrupts = parse_backends(args, "--corrupt", n)?;

    let cluster = ShardedPspCluster::new(ClusterConfig::new(n, k)).map_err(|e| e.to_string())?;
    println!("cluster: {n} backends, any {k} reconstruct");

    // Upload while everything is healthy; remember what must come back.
    let mut expected: Vec<(ClusterPhotoId, Vec<u8>)> = Vec::new();
    for i in 0..uploads.max(1) {
        let seed = (i % 200) as u8 + 1;
        let img = RgbImage::from_fn(96, 64, |x, y| {
            Rgb::new(
                (40 + (x * 3 + y + seed as u32) % 180) as u8,
                (50 + (x + y * 2 + seed as u32 * 7) % 170) as u8,
                (60 + (x * 2 + y * 3) % 160) as u8,
            )
        });
        let key = OwnerKey::from_seed([seed; 32]);
        let opts = ProtectOptions::default().with_image_id(i as u64 + 1);
        let protected =
            protect(&img, &[Rect::new(24, 16, 32, 32)], &key, &opts).map_err(|e| e.to_string())?;
        let grant = key.grant_rois(i as u64 + 1, &[0]);
        let id = cluster
            .upload(protected.bytes.clone(), protected.params.to_bytes(), &grant)
            .map_err(|e| e.to_string())?;
        expected.push((id, protected.bytes));
    }
    println!("uploaded {} protected photos", expected.len());

    for &i in &kills {
        cluster.fault(i, Fault::Kill);
        println!("backend {i}: KILLED");
    }
    for &i in &corrupts {
        cluster.fault(i, Fault::Corrupt);
        println!("backend {i}: CORRUPTING");
    }
    if kills.len() + corrupts.len() > n - k {
        println!(
            "note: {} faulted backends exceeds the n - k = {} budget; reconstruction is expected to fail",
            kills.len() + corrupts.len(),
            n - k
        );
    }

    let mut failures = 0;
    for (id, bytes) in &expected {
        match cluster.reconstruct(*id) {
            Ok((_, got)) if got == *bytes => {
                println!("photo {}: reconstructed byte-exact", id.0);
            }
            Ok(_) => {
                failures += 1;
                println!("photo {}: RECONSTRUCTION DIVERGED", id.0);
            }
            Err(e) => {
                failures += 1;
                println!("photo {}: reconstruction failed: {e}", id.0);
            }
        }
    }

    if crate::has_flag(args, "--rebalance") {
        for &i in &kills {
            cluster.replace_backend(i).map_err(|e| e.to_string())?;
            println!("backend {i}: replaced with a fresh empty backend");
        }
        for &i in &corrupts {
            cluster.clear_fault(i);
            println!("backend {i}: fault cleared");
        }
        let moved = cluster.rebalance_all().map_err(|e| e.to_string())?;
        println!("rebalanced {moved} uploads onto the repaired cluster");
        for (id, bytes) in &expected {
            let (_, got) = cluster.reconstruct(*id).map_err(|e| e.to_string())?;
            if got != *bytes {
                failures += 1;
                println!("photo {}: DIVERGED after rebalance", id.0);
            }
        }
        println!("post-rebalance verification complete");
    }

    if failures > 0 {
        return Err(format!("{failures} reconstruction failure(s)"));
    }
    println!("all acknowledged uploads verified");
    Ok(())
}
