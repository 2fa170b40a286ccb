//! A minimal HTTP/1.1 codec over `std::io` streams.
//!
//! The service speaks exactly the subset a mining daemon needs: one request
//! per connection (`Connection: close` on every response), request bodies
//! delimited by `Content-Length`, percent-decoded query strings. No chunked
//! encoding, no keep-alive, no TLS — and no dependencies, which is the
//! point: tier-1 stays offline and the crate builds from `std` alone.
//!
//! [`read_request`] reads the head through one buffer, up to 4 KiB per
//! `read` call, so a typical request costs one or two system calls. Body
//! bytes that arrive in the same reads as the head are kept, and the rest
//! of the body is read with one `read_exact`. The head may run to 64 KiB
//! and the body to 256 MiB; beyond either the request fails as
//! [`ParseError::TooLarge`].

use std::io::{Read, Write};

/// Upper bound on request head (request line + headers) and body sizes.
/// A mining request is a short line of query parameters; an upload is a
/// dataset, which legitimately runs to megabytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;
const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;

/// A parsed request: method, decoded path segments, query pairs and body.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// The request path, percent-decoded, without the query string.
    pub path: String,
    /// Query parameters in arrival order, percent-decoded.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The `/`-separated path segments, empty segments dropped.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be parsed; rendered as a 400 by the server.
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed or errored before a full head arrived.
    Io(std::io::Error),
    /// The bytes were not a well-formed HTTP/1.x request.
    Malformed(String),
    /// Head or body exceeded the hard limits.
    TooLarge(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed(m) => write!(f, "malformed request: {m}"),
            ParseError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn malformed(m: impl Into<String>) -> ParseError {
    ParseError::Malformed(m.into())
}

/// Decodes `%XX` escapes and `+`-as-space in a query component.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        // lint:allow(panic-reachability): `i < bytes.len()` is the loop condition
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Bytes asked of the stream per `read` call while the head is read.
const READ_CHUNK: usize = 4096;

/// Reads and parses one request from `stream`.
///
/// The head is read in chunks of up to 4 KiB. Bytes past the head's blank
/// line that arrived in the same reads start the body; the rest of the
/// body is read in one `read_exact`.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, ParseError> {
    // Read until the blank line ending the head.
    let mut buf = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    let head_len = loop {
        let n = stream.read(&mut chunk)?;
        let got = chunk.get(..n).unwrap_or_default();
        if got.is_empty() {
            return Err(malformed("connection closed before request head completed"));
        }
        // The terminator may straddle two reads: resume the search three
        // bytes before the new data.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(got);
        let end = buf
            .get(from..)
            .and_then(|tail| tail.windows(4).position(|w| w == b"\r\n\r\n"))
            .map(|at| from + at + 4);
        // A head may be at most MAX_HEAD_BYTES long, plus the final byte
        // of its terminator.
        match end {
            Some(end) if end <= MAX_HEAD_BYTES + 1 => break end,
            _ if buf.len() > MAX_HEAD_BYTES => {
                return Err(ParseError::TooLarge(format!("head exceeds {MAX_HEAD_BYTES} bytes")));
            }
            _ => {}
        }
    };
    let (head, early_body) = buf.split_at(head_len);
    let head_text = std::str::from_utf8(head).map_err(|_| malformed("head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| malformed("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| malformed("missing method"))?.to_uppercase();
    let target = parts.next().ok_or_else(|| malformed("missing request target"))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(malformed("expected an HTTP/1.x version")),
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| malformed("bad header line"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed(format!("bad Content-Length {:?}", value.trim())))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge(format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }
    let early = early_body.get(..content_length).unwrap_or(early_body);
    let mut body = Vec::with_capacity(content_length);
    body.extend_from_slice(early);
    body.resize(content_length, 0);
    if let Some(rest) = body.get_mut(early.len()..) {
        stream.read_exact(rest)?;
    }
    Ok(Request { method, path: percent_decode(raw_path), query: parse_query(raw_query), body })
}

/// A response under construction; consumed by [`Response::write_to`].
#[derive(Debug)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A response with the given status and an empty body.
    pub fn new(status: u16) -> Self {
        Self { status, headers: Vec::new(), body: Vec::new() }
    }

    /// Shorthand for a JSON response (sets `Content-Type`).
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self::new(status).with_header("Content-Type", "application/json").with_body(body)
    }

    /// Shorthand for a plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(status)
            .with_header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into().into_bytes())
    }

    /// The HTTP status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    /// Serialises the response (status line, headers, `Content-Length`,
    /// `Connection: close`, body) and flushes it in one write sequence.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            201 => "Created",
            206 => "Partial Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            421 => "Misdirected Request",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason);
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\nConnection: close\r\n\r\n", self.body.len()));
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        read_request(&mut cursor)
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse(
            b"POST /datasets/shop/mine?per=360&min-ps=2%25&note=a+b HTTP/1.1\r\n\
              Host: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/datasets/shop/mine");
        assert_eq!(req.segments(), vec!["datasets", "shop", "mine"]);
        assert_eq!(req.query_param("per"), Some("360"));
        assert_eq!(req.query_param("min-ps"), Some("2%"), "percent-decoded");
        assert_eq!(req.query_param("note"), Some("a b"), "plus-decoded");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn missing_body_defaults_to_empty() {
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(req.query.is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse(b"").is_err());
        assert!(parse(b"GET\r\n\r\n").is_err(), "no target");
        assert!(parse(b"GET / SPDY/3\r\n\r\n").is_err(), "wrong protocol");
        assert!(parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        // Truncated body.
        assert!(parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES + 1));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&raw), Err(ParseError::TooLarge(_))));
    }

    /// A reader handing out at most `step` bytes per `read` call.
    struct Trickle {
        data: std::io::Cursor<Vec<u8>>,
        step: usize,
        reads: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.step);
            self.data.read(&mut buf[..n])
        }
    }

    fn parse_in_steps(raw: &[u8], step: usize) -> (Result<Request, ParseError>, usize) {
        let mut reader = Trickle { data: std::io::Cursor::new(raw.to_vec()), step, reads: 0 };
        let parsed = read_request(&mut reader);
        (parsed, reader.reads)
    }

    /// A head of exactly `len` bytes, terminator included.
    fn head_of_len(len: usize) -> Vec<u8> {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'x', len - b"GET / HTTP/1.1\r\n\r\n".len()));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(raw.len(), len);
        raw
    }

    #[test]
    fn head_delivered_one_byte_per_read_parses() {
        let raw = b"POST /v1/datasets/shop/append?x=1 HTTP/1.1\r\n\
                    Content-Length: 7\r\n\r\n1\tz\n2\tz";
        for step in [1, 2, 3, 5, 7] {
            let (req, _) = parse_in_steps(raw, step);
            let req = req.unwrap();
            assert_eq!(req.path, "/v1/datasets/shop/append", "step {step}");
            assert_eq!(req.query_param("x"), Some("1"));
            assert_eq!(req.body, b"1\tz\n2\tz", "step {step}");
        }
    }

    #[test]
    fn body_in_the_same_read_as_the_head_is_kept() {
        let raw = b"POST /upload HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        let (req, reads) = parse_in_steps(raw, READ_CHUNK);
        assert_eq!(req.unwrap().body, b"hello world");
        assert_eq!(reads, 1, "head and body arrived in one read");
        // A body longer than the first read is finished from the stream.
        let mut raw = b"POST /upload HTTP/1.1\r\nContent-Length: 10000\r\n\r\n".to_vec();
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        raw.extend_from_slice(&body);
        let (req, _) = parse_in_steps(&raw, READ_CHUNK);
        assert_eq!(req.unwrap().body, body);
        // Bytes past Content-Length are not part of the body.
        let (req, _) = parse_in_steps(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabcdef", 64);
        assert_eq!(req.unwrap().body, b"ab");
    }

    #[test]
    fn head_limit_is_exact_in_any_read_size() {
        for step in [1, 1000, READ_CHUNK] {
            // A head whose terminator ends at byte MAX_HEAD_BYTES + 1 is
            // accepted; one byte more is not.
            let (ok, _) = parse_in_steps(&head_of_len(MAX_HEAD_BYTES + 1), step);
            assert!(ok.is_ok(), "step {step}");
            let (big, _) = parse_in_steps(&head_of_len(MAX_HEAD_BYTES + 2), step);
            assert!(matches!(big, Err(ParseError::TooLarge(_))), "step {step}");
        }
    }

    #[test]
    fn every_parse_error_case_survives_chunked_reads() {
        for step in [1, READ_CHUNK] {
            let (eof, _) = parse_in_steps(b"GET / HTTP/1.1\r\nHost: x\r\n", step);
            assert!(matches!(eof, Err(ParseError::Malformed(_))), "closed mid-head");
            let (utf8, _) = parse_in_steps(b"GET /\xff HTTP/1.1\r\n\r\n", step);
            assert!(matches!(utf8, Err(ParseError::Malformed(_))), "non-UTF-8 head");
            let (body, _) =
                parse_in_steps(b"POST / HTTP/1.1\r\nContent-Length: 268435457\r\n\r\n", step);
            assert!(matches!(body, Err(ParseError::TooLarge(_))), "body over 256 MiB");
            let (short, _) =
                parse_in_steps(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc", step);
            assert!(matches!(short, Err(ParseError::Io(_))), "truncated body");
        }
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut buf = Vec::new();
        Response::json(206, "{\"x\":1}")
            .with_header("X-Rpm-Abort", "deadline exceeded")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 206 Partial Content\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Rpm-Abort: deadline exceeded\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
    }

    #[test]
    fn percent_decoding_is_lenient_on_junk() {
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("100%"), "100%", "dangling escape kept literally");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
