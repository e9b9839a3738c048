//! Minimal HTTP/1.1 over a `TcpStream`: just enough protocol for the PSP
//! service and its blocking client — request-line + headers,
//! `Content-Length` framing both ways, keep-alive. Deliberately not a
//! general server: no chunked encoding (a `Transfer-Encoding` request is
//! answered 501, conflicting `Content-Length`s 400), no `Expect: continue`,
//! no TLS.

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on header count, to bound the parse loop.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, percent-free path, lowercased headers, body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as received).
    pub method: String,
    /// Request target, e.g. `/photos/3/transformed` (query ignored).
    pub path: String,
    /// `(lowercased name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The bearer token from `Authorization`, if present.
    pub fn bearer(&self) -> Option<&str> {
        self.header("authorization")?.strip_prefix("Bearer ")
    }

    /// Whether the connection should stay open after this exchange.
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Outcome of one bounded line read.
enum Line {
    /// Clean EOF before any byte of the line.
    Eof,
    /// The line exceeded its byte cap; the connection should be dropped.
    TooLong,
    /// A complete line, without its terminator (`\n`, `\r\n` stripped).
    /// EOF mid-line yields the partial bytes, like `read_line` would.
    Bytes(Vec<u8>),
}

/// Reads one `\n`-terminated line, never buffering more than `cap`
/// bytes. `BufRead::read_line` has no cap — it would buffer an endless
/// newline-free stream whole, an unbounded-memory DoS — so the head
/// must be read through this instead.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> io::Result<Line> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (consumed, done) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                return Ok(if line.is_empty() {
                    Line::Eof
                } else {
                    Line::Bytes(line)
                });
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if line.len() + i > cap {
                        return Ok(Line::TooLong);
                    }
                    line.extend_from_slice(&available[..i]);
                    (i + 1, true)
                }
                None => {
                    if line.len() + available.len() > cap {
                        return Ok(Line::TooLong);
                    }
                    line.extend_from_slice(available);
                    (available.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Line::Bytes(line));
        }
    }
}

/// Outcome of reading one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Peer closed the connection cleanly between requests.
    Closed,
    /// The bytes on the wire were not a request we accept; the given
    /// status/reason should be written back before closing.
    Malformed(u16, &'static str),
}

/// Reads one request. `max_body` caps `Content-Length`; io timeouts and
/// errors surface as `Err` so the caller can decide whether the deadline
/// was a graceful-shutdown poll or a real failure.
///
/// # Errors
/// Propagates socket errors, including read timeouts (`WouldBlock` /
/// `TimedOut`).
pub fn read_request(reader: &mut BufReader<TcpStream>, max_body: usize) -> io::Result<ReadOutcome> {
    let line = match read_line_capped(reader, MAX_HEAD)? {
        Line::Eof => return Ok(ReadOutcome::Closed),
        Line::TooLong => return Ok(ReadOutcome::Malformed(414, "URI Too Long")),
        Line::Bytes(bytes) => match String::from_utf8(bytes) {
            Ok(s) => s,
            Err(_) => return Ok(ReadOutcome::Malformed(400, "Bad Request")),
        },
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Ok(ReadOutcome::Malformed(400, "Bad Request")),
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed(505, "HTTP Version Not Supported"));
    }
    let mut headers = Vec::new();
    let mut head_budget = MAX_HEAD - line.len().min(MAX_HEAD);
    loop {
        let h = match read_line_capped(reader, head_budget)? {
            Line::Eof => return Ok(ReadOutcome::Malformed(400, "Bad Request")),
            Line::TooLong => {
                return Ok(ReadOutcome::Malformed(
                    431,
                    "Request Header Fields Too Large",
                ))
            }
            Line::Bytes(bytes) => match String::from_utf8(bytes) {
                Ok(s) => s,
                Err(_) => return Ok(ReadOutcome::Malformed(400, "Bad Request")),
            },
        };
        head_budget -= (h.len() + 1).min(head_budget);
        if headers.len() > MAX_HEADERS {
            return Ok(ReadOutcome::Malformed(
                431,
                "Request Header Fields Too Large",
            ));
        }
        if h.is_empty() {
            break;
        }
        match h.split_once(':') {
            Some((k, v)) => headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string())),
            None => return Ok(ReadOutcome::Malformed(400, "Bad Request")),
        }
    }
    // Only `Content-Length` framing is supported. A chunked body left
    // unread would be parsed as the next request, so refuse it outright.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Ok(ReadOutcome::Malformed(501, "Not Implemented"));
    }
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let first_length = lengths.next();
    if lengths.any(|v| Some(v) != first_length) {
        return Ok(ReadOutcome::Malformed(400, "Bad Request"));
    }
    let content_length = first_length.map(str::parse::<usize>);
    let body = match content_length {
        None => Vec::new(),
        Some(Err(_)) => return Ok(ReadOutcome::Malformed(400, "Bad Request")),
        Some(Ok(n)) if n > max_body => return Ok(ReadOutcome::Malformed(413, "Payload Too Large")),
        Some(Ok(n)) => {
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body)?;
            body
        }
    };
    // Query strings are not part of the API; strip them so routing is exact.
    let path = path.split('?').next().unwrap_or("").to_string();
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// A response ready to serialize: status, extra headers, body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra `(name, value)` headers beyond `Content-Length`/`Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a binary body.
    pub fn ok(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body,
        }
    }

    /// 200 with a text body.
    pub fn text(body: impl Into<String>) -> Response {
        Response::ok(body.into().into_bytes())
    }

    /// Status + reason as a one-line text body.
    pub fn status(status: u16, reason: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: format!("{reason}\n").into_bytes(),
        }
    }

    /// Adds a header, builder-style.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes a response. `keep_alive` selects the `Connection` header.
///
/// # Errors
/// Propagates socket errors.
pub fn write_response(stream: &mut TcpStream, resp: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in &resp.headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    write_head_body(stream, head.as_bytes(), &resp.body)
}

/// Client side: writes a request with a binary body and optional extra
/// headers (e.g. `x-puppies-trace`). Header names and values must be
/// CR/LF-free; this is a programming contract, not validated.
///
/// # Errors
/// Propagates socket errors.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    bearer: Option<&str>,
    extra: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: psp\r\ncontent-length: {}\r\n",
        body.len()
    );
    if let Some(token) = bearer {
        head.push_str("authorization: Bearer ");
        head.push_str(token);
        head.push_str("\r\n");
    }
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    write_head_body(stream, head.as_bytes(), body)
}

/// Writes a message's head and body with one `write_vectored` call while
/// the socket takes them whole (one syscall, and on a `TCP_NODELAY`
/// socket one segment for a small message), looping over partial writes.
fn write_head_body(w: &mut impl Write, mut head: &[u8], mut body: &[u8]) -> io::Result<()> {
    while !head.is_empty() || !body.is_empty() {
        let n = match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let from_head = n.min(head.len());
        head = &head[from_head..];
        body = &body[n - from_head..];
    }
    w.flush()
}

/// A parsed response triple: status, headers (lowercased names), body.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Client side: reads a status line + headers + `Content-Length` body.
/// Returns `(status, headers, body)`.
///
/// # Errors
/// Fails on socket errors or a response that is not minimal HTTP/1.1.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<RawResponse> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let line = match read_line_capped(reader, MAX_HEAD)? {
        Line::Eof => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response",
            ))
        }
        Line::TooLong => return Err(bad("status line too long")),
        Line::Bytes(bytes) => String::from_utf8(bytes).map_err(|_| bad("non-utf8 status line"))?,
    };
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let trimmed = match read_line_capped(reader, MAX_HEAD)? {
            Line::Eof => return Err(bad("truncated response head")),
            Line::TooLong => return Err(bad("response header too long")),
            Line::Bytes(bytes) => String::from_utf8(bytes).map_err(|_| bad("non-utf8 header"))?,
        };
        if trimmed.is_empty() {
            break;
        }
        let (k, v) = trimmed.split_once(':').ok_or_else(|| bad("bad header"))?;
        let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
        if k == "content-length" {
            content_length = v.parse().map_err(|_| bad("bad content-length"))?;
        }
        headers.push((k, v));
        if headers.len() > MAX_HEADERS {
            return Err(bad("too many response headers"));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        (join.join().unwrap(), server)
    }

    #[test]
    fn request_roundtrip_with_body_and_bearer() {
        let (mut client, server) = pipe();
        write_request(
            &mut client,
            "POST",
            "/photos/7/transform",
            Some("tok"),
            &[("x-puppies-trace", "1-2a")],
            b"abc",
        )
        .unwrap();
        let mut reader = BufReader::new(server);
        match read_request(&mut reader, 1024).unwrap() {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/photos/7/transform");
                assert_eq!(req.bearer(), Some("tok"));
                assert_eq!(req.header("x-puppies-trace"), Some("1-2a"));
                assert_eq!(req.body, b"abc");
                assert!(req.keep_alive());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip() {
        let (client, mut server) = pipe();
        let resp = Response::ok(vec![1, 2, 3]).with_header("x-cache", "hit");
        write_response(&mut server, &resp, true).unwrap();
        let mut reader = BufReader::new(client);
        let (status, headers, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, vec![1, 2, 3]);
        assert!(headers.iter().any(|(k, v)| k == "x-cache" && v == "hit"));
    }

    #[test]
    fn four_mib_bodies_roundtrip_through_partial_writes() {
        // A 4 MiB body does not fit the socket buffers, so the vectored
        // write returns short and the loop resumes mid-head or mid-body.
        let body: Vec<u8> = (0..4usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        let (mut client, server) = pipe();
        let sent = body.clone();
        let writer = thread::spawn(move || {
            write_request(&mut client, "POST", "/photos", Some("t"), &[], &sent).unwrap();
            client
        });
        let mut reader = BufReader::new(server);
        let mut server = match read_request(&mut reader, 8 << 20).unwrap() {
            ReadOutcome::Request(req) => {
                assert_eq!(req.bearer(), Some("t"));
                assert!(req.body == body, "request body differs");
                reader.into_inner()
            }
            other => panic!("unexpected: {other:?}"),
        };
        let client = writer.join().unwrap();
        let resp = Response::ok(body.clone());
        let writer = thread::spawn(move || {
            write_response(&mut server, &resp, true).unwrap();
            server
        });
        let (status, _, got) = read_response(&mut BufReader::new(client)).unwrap();
        assert_eq!(status, 200);
        assert!(got == body, "response body differs");
        drop(writer.join().unwrap());
    }

    /// Takes at most `max` bytes per call, and fails every third call
    /// with `Interrupted`.
    struct Trickle {
        out: Vec<u8>,
        max: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 3 == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut room = self.max;
            for b in bufs {
                let n = b.len().min(room);
                self.out.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.max - room)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_loop_resumes_after_every_partial_write() {
        let (head, body) = (b"HEAD\r\n\r\n".as_slice(), b"0123456789abcdef".as_slice());
        for max in 1..=head.len() + body.len() + 1 {
            let mut w = Trickle {
                out: Vec::new(),
                max,
                calls: 0,
            };
            write_head_body(&mut w, head, body).unwrap();
            assert_eq!(w.out, [head, body].concat(), "max {max}");
        }
        // A sink that takes nothing is an error, not a spin.
        let mut stuck = Trickle {
            out: Vec::new(),
            max: 0,
            calls: 0,
        };
        let err = write_head_body(&mut stuck, head, body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_body_is_rejected_as_413() {
        let (mut client, server) = pipe();
        write_request(&mut client, "POST", "/photos", None, &[], &[0u8; 64]).unwrap();
        let mut reader = BufReader::new(server);
        match read_request(&mut reader, 16).unwrap() {
            ReadOutcome::Malformed(413, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn newline_free_stream_is_bounded_not_buffered() {
        let (mut client, server) = pipe();
        // A head with no newline must be rejected once it exceeds
        // MAX_HEAD, not buffered without bound while the peer streams.
        let junk = vec![b'A'; MAX_HEAD + 1024];
        client.write_all(&junk).unwrap();
        client.flush().unwrap();
        let mut reader = BufReader::new(server);
        match read_request(&mut reader, 1024).unwrap() {
            ReadOutcome::Malformed(414, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn oversized_header_line_is_rejected_as_431() {
        let (mut client, server) = pipe();
        let mut req = b"GET /health HTTP/1.1\r\nx-junk: ".to_vec();
        req.resize(req.len() + MAX_HEAD, b'j');
        let writer = thread::spawn(move || {
            let _ = client.write_all(&req);
            client
        });
        let mut reader = BufReader::new(server);
        match read_request(&mut reader, 1024).unwrap() {
            ReadOutcome::Malformed(431, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
        drop(writer.join().unwrap());
    }

    /// Writes a raw request head and returns what `read_request` makes
    /// of it.
    fn read_raw(raw: &'static [u8]) -> ReadOutcome {
        let (mut client, server) = pipe();
        client.write_all(raw).unwrap();
        let mut reader = BufReader::new(server);
        read_request(&mut reader, 1024).unwrap()
    }

    #[test]
    fn transfer_encoding_is_rejected_as_501() {
        let chunked =
            b"POST /photos HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        match read_raw(chunked) {
            ReadOutcome::Malformed(501, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_as_400() {
        let conflicting =
            b"POST /photos HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 5\r\n\r\nhello";
        match read_raw(conflicting) {
            ReadOutcome::Malformed(400, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
        // The same length repeated is one framing, not two.
        let repeated =
            b"POST /photos HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\nhello";
        match read_raw(repeated) {
            ReadOutcome::Request(req) => assert_eq!(req.body, b"hello"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn clean_close_between_requests_is_detected() {
        let (client, server) = pipe();
        drop(client);
        let mut reader = BufReader::new(server);
        assert!(matches!(
            read_request(&mut reader, 16).unwrap(),
            ReadOutcome::Closed
        ));
    }
}
