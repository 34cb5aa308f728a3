//! Minimal HTTP/1.1 for the daemon: just enough of the wire protocol for
//! JSON request/response exchanges over `std::net`, with no external
//! dependencies (the workspace's offline `shims/` policy).
//!
//! Supported shape: one request per connection (`Connection: close`),
//! `Content-Length`-framed bodies (no chunked encoding), UTF-8 bodies.
//! Parsing is defensive — partial reads are reassembled, oversized headers
//! and bodies are rejected with the proper status instead of buffering
//! unboundedly, and malformed input produces a 400, never a panic.

use std::io::{self, Read, Write};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body. Predict/decode batches are a few KB of
/// JSON; anything near this limit is a client bug or abuse.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed HTTP request: method, path, and the full (decoded) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// The request path, query string included, e.g. `/jobs/3`.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// The path with any query string stripped: `/metrics?format=x` →
    /// `/metrics`.
    pub fn path_only(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// The value of query parameter `key`, if present (`?a=1&b=2`;
    /// no percent-decoding — the served parameters are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let (_, query) = self.path.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be parsed, mapped to the response status the
/// server should answer with.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, headers, or body → 400.
    BadRequest(String),
    /// Declared body larger than [`MAX_BODY_BYTES`] → 413.
    TooLarge(String),
    /// The connection failed mid-exchange; nothing can be answered.
    Io(io::Error),
}

impl HttpError {
    /// The error as a ready-to-send response, if one can be sent.
    pub fn into_response(self) -> Option<Response> {
        match self {
            HttpError::BadRequest(msg) => Some(Response::error(400, &msg)),
            HttpError::TooLarge(msg) => Some(Response::error(413, &msg)),
            HttpError::Io(_) => None,
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads and parses one request from `stream`, reassembling partial reads
/// until the head terminator and the full declared body have arrived.
///
/// # Errors
///
/// [`HttpError::BadRequest`] for malformed framing, [`HttpError::TooLarge`]
/// for bodies over [`MAX_BODY_BYTES`], [`HttpError::Io`] if the peer hangs
/// up mid-request.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    // Accumulate until we have seen the blank line ending the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before end of request head".to_string(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol `{version}`"
        )));
    }

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    HttpError::BadRequest(format!("bad content-length `{}`", value.trim()))
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    // The body: whatever followed the head in the buffer, plus more reads.
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(16 * 1024)];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest(format!(
                "connection closed with {} of {content_length} body bytes read",
                body.len()
            )));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| HttpError::BadRequest("request body is not UTF-8".to_string()))?;

    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response ready to serialize onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 400, ...).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `X-Request-Id`), emitted in order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response (used by `/metrics`, which returns JSONL).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Returns the response with an extra header appended.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// A JSON error envelope: `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> Self {
        #[derive(serde::Serialize)]
        struct ErrorBody {
            error: String,
        }
        let body = serde_json::to_string(&ErrorBody {
            error: message.to_string(),
        })
        .expect("error body serialization is infallible");
        Response::json(status, body)
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Serializes the response (status line, headers, body) onto `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

/// Performs one HTTP exchange against `addr` and returns `(status, body)`.
/// This is the client half of the protocol subset the server speaks; the
/// CLI `client` subcommand and the smoke tests are built on it.
///
/// # Errors
///
/// I/O errors connecting or exchanging, or a response too malformed to
/// split into head and body.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = std::net::TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text.split_once("\r\n\r\n").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "response without head terminator",
        )
    })?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without status"))?;
    Ok((status, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields the wrapped bytes one at a time, exercising reassembly of
    /// partial reads.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Trickle { data: raw, pos: 0 })
    }

    #[test]
    fn parses_post_with_body_from_partial_reads() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"points\":[]}";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, "{\"points\":[]}");
    }

    #[test]
    fn parses_get_without_content_length() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_rejected_not_buffered() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse(raw.as_bytes()) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        match parse(&raw) {
            Err(HttpError::BadRequest(msg)) => assert!(msg.contains("head"), "{msg}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn malformed_request_lines_are_bad_requests() {
        for raw in [
            &b"\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET /x SPDY/9\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: frog\r\n\r\n"[..],
        ] {
            match parse(raw) {
                Err(HttpError::BadRequest(_)) => {}
                other => panic!("{:?} should be BadRequest, got {other:?}", raw),
            }
        }
    }

    /// Yields the wrapped bytes in caller-chosen chunk sizes, exercising
    /// specific read-boundary placements.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: Vec<usize>,
        pos: usize,
        call: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            let want = self.sizes.get(self.call).copied().unwrap_or(usize::MAX);
            self.call += 1;
            let n = want.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn split_reads_across_the_content_length_boundary_reassemble() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"points\":[]}";
        let head_len = raw.len() - 13;
        // Split exactly at the head/body boundary, one byte past it, and
        // mid-body: the parser must reassemble all three identically.
        for sizes in [
            vec![head_len, 13],
            vec![head_len + 1, 12],
            vec![head_len - 2, 2, 6, 7],
        ] {
            let req = read_request(&mut Chunked {
                data: raw,
                sizes: sizes.clone(),
                pos: 0,
                call: 0,
            })
            .unwrap_or_else(|e| panic!("sizes {sizes:?}: {e:?}"));
            assert_eq!(req.body, "{\"points\":[]}", "sizes {sizes:?}");
        }
    }

    #[test]
    fn pipelined_second_request_does_not_corrupt_the_first() {
        // One-request-per-connection: bytes past the first request's body
        // (a pipelined second request) are ignored, not parsed into the
        // first request's body.
        let raw =
            b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, "{}");
    }

    #[test]
    fn oversized_header_block_is_rejected_even_with_a_valid_request_line() {
        // Many individually small headers that together blow the head cap.
        let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..2048 {
            raw.extend_from_slice(format!("X-Pad-{i}: {:064}\r\n", i).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(raw.len() > MAX_HEAD_BYTES);
        match parse(&raw) {
            Err(HttpError::BadRequest(msg)) => assert!(msg.contains("head"), "{msg}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn more_malformed_request_lines_are_bad_requests() {
        for raw in [
            &b"GET /x\r\n\r\n"[..],                     // missing version
            &b"  \r\n\r\n"[..],                         // whitespace only
            &b"\xff\xfe /x HTTP/1.1\r\n\r\n"[..],       // non-UTF-8 head
            &b"GET /x HTTP/1.1 extra junk\r\n\r\n"[..], // trailing tokens are tolerated...
        ] {
            match parse(raw) {
                Err(HttpError::BadRequest(_)) => {}
                // ...the last case parses (extra tokens ignored); anything
                // else must fail closed.
                Ok(req) => assert_eq!(req.path, "/x", "{raw:?}"),
                other => panic!("{raw:?}: got {other:?}"),
            }
        }
    }

    #[test]
    fn path_helpers_split_query_strings() {
        let req = Request {
            method: "GET".to_string(),
            path: "/metrics?format=manifest&name=a.b".to_string(),
            body: String::new(),
        };
        assert_eq!(req.path_only(), "/metrics");
        assert_eq!(req.query_param("format"), Some("manifest"));
        assert_eq!(req.query_param("name"), Some("a.b"));
        assert_eq!(req.query_param("nope"), None);
        let bare = Request {
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            body: String::new(),
        };
        assert_eq!(bare.path_only(), "/healthz");
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn extra_headers_serialize_before_the_blank_line() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("X-Request-Id", "r7-0")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nX-Request-Id: r7-0\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        match parse(raw) {
            Err(HttpError::BadRequest(msg)) => assert!(msg.contains("body bytes"), "{msg}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    #[test]
    fn responses_serialize_with_exact_framing() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        Response::error(404, "no such job")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.ends_with("{\"error\":\"no such job\"}"));
    }
}
