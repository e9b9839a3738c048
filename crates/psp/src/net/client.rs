//! Blocking PSP client over one keep-alive connection.
//!
//! Mirrors the in-process [`crate::PspServer`] doors one-for-one so
//! callers (the CLI, the `bench psp --net` load generator, the
//! conformance oracle) can swap the wire in and compare byte-for-byte.

use super::http;
use super::proto;
use crate::store::PhotoId;
use crate::{PspError, Result};
use puppies_transform::Transformation;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Response headers, lowercased names.
type Headers = Vec<(String, String)>;

/// Whether a transformed download was served from the PSP's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCache {
    /// `x-cache: hit`.
    Hit,
    /// `x-cache: miss` (or absent).
    Miss,
}

/// Which pipeline produced a transformed download, as reported by the
/// server's `x-served-path` response header — the wire-visible face of
/// [`crate::ServedPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireServed {
    /// `x-served-path: coeff-domain` — transformed on quantized
    /// coefficients, no pixels materialized.
    CoeffDomain,
    /// `x-served-path: pixel-fallback` — decode → transform → re-encode.
    PixelFallback,
    /// `x-served-path: cached` — transform-result cache, no codec work.
    Cached,
    /// `x-served-path: sig-cached` — transform-result cache via the
    /// perceptual-identity (signature family) key: this photo is a
    /// recompressed near-duplicate of a photo already served.
    SigCached,
    /// Header absent or unrecognized (an older server).
    Unknown,
}

impl WireServed {
    fn from_header(v: &str) -> WireServed {
        match v {
            "coeff-domain" => WireServed::CoeffDomain,
            "pixel-fallback" => WireServed::PixelFallback,
            "cached" => WireServed::Cached,
            "sig-cached" => WireServed::SigCached,
            _ => WireServed::Unknown,
        }
    }
}

/// A photo id plus the owner token that authorizes in-place transforms.
#[derive(Debug, Clone)]
pub struct UploadReceipt {
    /// The assigned photo id.
    pub id: PhotoId,
    /// Bearer token for `POST /photos/<id>/transform`.
    pub owner_token: String,
}

/// One blocking keep-alive connection to a PSP server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn net_err(what: &str, e: impl std::fmt::Display) -> PspError {
    PspError::Channel(format!("{what}: {e}"))
}

impl Client {
    /// Connects with a 10 s request timeout.
    ///
    /// # Errors
    /// Fails if the address does not resolve or connect.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| net_err("connect", e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| net_err("timeout", e))?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| net_err("clone", e))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(
        &mut self,
        method: &str,
        path: &str,
        bearer: Option<&str>,
        body: &[u8],
    ) -> Result<http::RawResponse> {
        // When a subscriber is installed, every wire call gets its own
        // client-side span, and that span rides the request as an
        // `x-puppies-trace` header so the server (and anything it fans
        // out to) can parent itself under this call.
        let _span = puppies_obs::span("psp.net.client_call", "net.client");
        let trace = puppies_obs::TraceContext::current().map(|c| c.header_value());
        let header;
        let extra: &[(&str, &str)] = match trace.as_deref() {
            Some(v) => {
                header = [("x-puppies-trace", v)];
                &header
            }
            None => &[],
        };
        http::write_request(&mut self.writer, method, path, bearer, extra, body)
            .map_err(|e| net_err("write request", e))?;
        http::read_response(&mut self.reader).map_err(|e| net_err("read response", e))
    }

    fn expect(
        &mut self,
        method: &str,
        path: &str,
        bearer: Option<&str>,
        body: &[u8],
        want: u16,
    ) -> Result<(Headers, Vec<u8>)> {
        let (status, headers, resp) = self.call(method, path, bearer, body)?;
        if status != want {
            let text = String::from_utf8_lossy(&resp);
            return Err(PspError::Channel(format!(
                "{method} {path}: HTTP {status}: {}",
                text.trim()
            )));
        }
        Ok((headers, resp))
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    /// Fails if the server is unreachable or unhealthy.
    pub fn health(&mut self) -> Result<()> {
        self.expect("GET", "/healthz", None, &[], 200).map(|_| ())
    }

    /// `GET /readyz`: `Ok(true)` when the server reports ready (200),
    /// `Ok(false)` while it is up but still recovering or degraded (503).
    ///
    /// # Errors
    /// Fails only on transport errors or unexpected statuses.
    pub fn ready(&mut self) -> Result<bool> {
        let (status, _, body) = self.call("GET", "/readyz", None, &[])?;
        match status {
            200 => Ok(true),
            503 => Ok(false),
            other => Err(PspError::Channel(format!(
                "GET /readyz: HTTP {other}: {}",
                String::from_utf8_lossy(&body).trim()
            ))),
        }
    }

    /// `GET /metrics`: the Prometheus text exposition.
    ///
    /// # Errors
    /// Fails on transport errors or if the server has no live metrics
    /// subscriber (503).
    pub fn metrics_text(&mut self) -> Result<String> {
        self.expect("GET", "/metrics", None, &[], 200)
            .map(|(_, body)| String::from_utf8_lossy(&body).into_owned())
    }

    /// Uploads a protected bitstream + params; the returned receipt's
    /// token gates in-place transforms on this photo.
    ///
    /// # Errors
    /// Fails on transport errors or a non-200 response.
    pub fn upload(&mut self, bytes: &[u8], params: &[u8]) -> Result<UploadReceipt> {
        let body = proto::encode_pair(bytes, params);
        let (_, resp) = self.expect("POST", "/photos", None, &body, 200)?;
        let text = String::from_utf8_lossy(&resp);
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::to_string)
        };
        let id = field("id:")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| PspError::Channel("upload response missing id".into()))?;
        let owner_token = field("token:")
            .ok_or_else(|| PspError::Channel("upload response missing token".into()))?;
        Ok(UploadReceipt {
            id: PhotoId(id),
            owner_token,
        })
    }

    /// Downloads the stored bitstream.
    ///
    /// # Errors
    /// Fails on transport errors or unknown photos.
    pub fn download(&mut self, id: PhotoId) -> Result<Vec<u8>> {
        self.expect("GET", &format!("/photos/{}", id.0), None, &[], 200)
            .map(|(_, body)| body)
    }

    /// Downloads the stored public params.
    ///
    /// # Errors
    /// Fails on transport errors or unknown photos.
    pub fn download_params(&mut self, id: PhotoId) -> Result<Vec<u8>> {
        self.expect("GET", &format!("/photos/{}/params", id.0), None, &[], 200)
            .map(|(_, body)| body)
    }

    /// Serving-door transform: returns `(bytes, params, cache outcome)`
    /// without modifying the stored photo.
    ///
    /// # Errors
    /// Fails on transport errors, unknown photos, or invalid transforms.
    pub fn download_transformed(
        &mut self,
        id: PhotoId,
        t: &Transformation,
    ) -> Result<(Vec<u8>, Vec<u8>, WireCache)> {
        self.download_transformed_traced(id, t)
            .map(|(b, p, cache, _)| (b, p, cache))
    }

    /// [`Client::download_transformed`], but also reports which pipeline
    /// produced the response (the `x-served-path` header) so load
    /// generators can verify the decode-free serving claim end to end.
    ///
    /// # Errors
    /// As [`Client::download_transformed`].
    pub fn download_transformed_traced(
        &mut self,
        id: PhotoId,
        t: &Transformation,
    ) -> Result<(Vec<u8>, Vec<u8>, WireCache, WireServed)> {
        let (headers, body) = self.expect(
            "POST",
            &format!("/photos/{}/transformed", id.0),
            None,
            &t.to_bytes(),
            200,
        )?;
        let (bytes, params) = proto::decode_pair(&body)
            .ok_or_else(|| PspError::Channel("bad transformed-download body".into()))?;
        let cache =
            headers
                .iter()
                .find(|(k, _)| k == "x-cache")
                .map_or(WireCache::Miss, |(_, v)| {
                    if v == "hit" {
                        WireCache::Hit
                    } else {
                        WireCache::Miss
                    }
                });
        let served = headers
            .iter()
            .find(|(k, _)| k == "x-served-path")
            .map_or(WireServed::Unknown, |(_, v)| WireServed::from_header(v));
        Ok((bytes.to_vec(), params.to_vec(), cache, served))
    }

    /// In-place transform, authorized by the upload receipt's owner token.
    ///
    /// # Errors
    /// Fails on transport errors, bad tokens, or invalid transforms.
    pub fn transform(&mut self, id: PhotoId, owner_token: &str, t: &Transformation) -> Result<()> {
        self.expect(
            "POST",
            &format!("/photos/{}/transform", id.0),
            Some(owner_token),
            &t.to_bytes(),
            204,
        )
        .map(|_| ())
    }

    /// Registers this receiver's DH public value; the returned bearer
    /// token authorizes [`Client::fetch_grants`].
    ///
    /// # Errors
    /// Fails on transport errors.
    pub fn register_receiver(&mut self, dh_public: u128) -> Result<String> {
        let (_, resp) = self.expect("POST", "/receivers", None, &dh_public.to_le_bytes(), 200)?;
        String::from_utf8_lossy(&resp)
            .lines()
            .find_map(|l| l.strip_prefix("token:").map(str::to_string))
            .ok_or_else(|| PspError::Channel("receiver response missing token".into()))
    }

    /// Deposits an end-to-end-encrypted grant in `receiver`'s mailbox.
    /// The PSP never sees the plaintext.
    ///
    /// # Errors
    /// Fails on transport errors.
    pub fn deposit_grant(&mut self, receiver: u128, sender: u128, ciphertext: &[u8]) -> Result<()> {
        let mut body = Vec::with_capacity(36 + ciphertext.len());
        body.extend_from_slice(&receiver.to_le_bytes());
        body.extend_from_slice(&sender.to_le_bytes());
        proto::put_frame(&mut body, ciphertext);
        self.expect("POST", "/grants", None, &body, 204).map(|_| ())
    }

    /// Drains this receiver's mailbox: `(sender public, ciphertext)`
    /// pairs, oldest first. Durable — a fetched grant stays fetched
    /// across server restarts.
    ///
    /// # Errors
    /// Fails on transport errors or an unknown token.
    pub fn fetch_grants(&mut self, receiver_token: &str) -> Result<Vec<(u128, Vec<u8>)>> {
        let (_, body) = self.expect("GET", "/grants", Some(receiver_token), &[], 200)?;
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < body.len() {
            let sender_bytes = body
                .get(pos..pos + 16)
                .ok_or_else(|| PspError::Channel("torn grant list".into()))?;
            let sender = u128::from_le_bytes(sender_bytes.try_into().unwrap());
            pos += 16;
            let ciphertext = proto::take_frame(&body, &mut pos)
                .ok_or_else(|| PspError::Channel("torn grant frame".into()))?;
            out.push((sender, ciphertext.to_vec()));
        }
        Ok(out)
    }

    /// `POST /search` — near-duplicate search by probe image. The probe
    /// is hashed server-side from public data only (its params blob, when
    /// given, masks the private ROIs); returns `(probe signature,
    /// matches)` with each match a `(photo id, Hamming distance)` pair,
    /// nearest first.
    ///
    /// # Errors
    /// Fails on transport errors or undecodable probes.
    pub fn search(
        &mut self,
        bytes: &[u8],
        params: Option<&[u8]>,
    ) -> Result<(u64, Vec<(PhotoId, u32)>)> {
        let body = proto::encode_pair(bytes, params.unwrap_or(&[]));
        let (_, resp) = self.expect("POST", "/search", None, &body, 200)?;
        let text = String::from_utf8_lossy(&resp);
        let mut lines = text.lines();
        let sig = lines
            .next()
            .and_then(|l| l.strip_prefix("sig:"))
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| PspError::Channel("search response missing sig".into()))?;
        let mut matches = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            let (Some(id), Some(dist)) = (parts.next(), parts.next()) else {
                continue;
            };
            let (Ok(id), Ok(dist)) = (id.parse::<u64>(), dist.parse::<u32>()) else {
                return Err(PspError::Channel(format!("bad search line: {line}")));
            };
            matches.push((PhotoId(id), dist));
        }
        Ok((sig, matches))
    }

    /// Asks the server to drain and stop (admin token required).
    ///
    /// # Errors
    /// Fails on transport errors or a bad token.
    pub fn shutdown(&mut self, admin_token: &str) -> Result<()> {
        self.expect("POST", "/admin/shutdown", Some(admin_token), &[], 202)
            .map(|_| ())
    }
}
