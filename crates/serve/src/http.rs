//! A minimal HTTP/1.1 implementation over `std::io` — just enough for
//! the service's JSON endpoints (the build environment is offline, so
//! the transport is hand-rolled on the standard library, matching the
//! `shims/` policy).
//!
//! Supported: request-line + header parsing with size limits,
//! `Content-Length` bodies, sequential keep-alive, and canned JSON
//! responses. Not supported (and not needed): chunked encoding,
//! pipelining, TLS.

use std::io::{self, BufRead, Read, Write};

/// Longest accepted request line or header line, in bytes.
const MAX_LINE: u64 = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
const MAX_BODY: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request target, e.g. `/synthesize`.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless the client sends `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn bad_request(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

/// An oversized declared body — mapped to `413 Payload Too Large` by the
/// transport (distinct from the 400s `InvalidData` produces).
fn payload_too_large(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::FileTooLarge, detail.into())
}

/// Strictly validates a `Content-Length` value **before any body
/// allocation or read**: ASCII digits only (no sign, no whitespace, no
/// empty value — `usize::parse` would accept a leading `+`), and within
/// [`MAX_BODY`].
///
/// # Errors
///
/// `InvalidData` (→ 400) for malformed values, `FileTooLarge` (→ 413)
/// for well-formed lengths over the cap.
fn parse_content_length(value: &str) -> io::Result<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad_request(format!("bad content-length `{value}`")));
    }
    match value.parse::<usize>() {
        Ok(n) if n <= MAX_BODY => Ok(n),
        // Over the cap or too many digits to represent: either way the
        // declared body is oversized.
        _ => Err(payload_too_large(format!(
            "declared body `{value}` exceeds {MAX_BODY} bytes"
        ))),
    }
}

/// Reads one `\n`-terminated line with a hard length cap, stripping the
/// line ending. `Ok(None)` means clean EOF before any byte.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    let taken = reader.take(MAX_LINE).read_until(b'\n', &mut line)?;
    if taken == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        return Err(bad_request(format!("line exceeds {MAX_LINE} bytes")));
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| bad_request("line is not UTF-8"))
}

/// Reads and parses one request. `Ok(None)` means the client closed the
/// connection cleanly between requests.
///
/// # Errors
///
/// `InvalidData` on malformed framing (oversized lines, bad
/// `Content-Length`, too many headers) and any underlying I/O error.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad_request(format!(
            "malformed request line `{request_line}`"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad_request(format!("unsupported protocol `{version}`")));
    }
    let mut headers = Vec::new();
    loop {
        let line =
            read_line(reader)?.ok_or_else(|| bad_request("connection closed mid-headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad_request(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad_request(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    // Chunked (or any) transfer coding is unsupported; silently
    // treating such a request as body-less would leave the chunked
    // body on the keep-alive socket to be parsed as the next request —
    // the classic desync/smuggling vector. RFC 9112 §6.1: reject.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(bad_request("transfer-encoding is not supported"));
    }
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some((_, v)), None) => parse_content_length(v)?,
        // Duplicate Content-Length headers are a smuggling vector;
        // reject rather than pick one.
        (Some(_), Some(_)) => return Err(bad_request("multiple content-length headers")),
    };
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a JSON response with the standard framing headers (one
/// `write_all` call, so small responses leave in a single TCP segment).
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write_response_typed(writer, status, "application/json", body, keep_alive, &[])
}

/// [`write_response`] with an explicit `Content-Type` (the `/metrics`
/// endpoint answers in Prometheus text format, everything else is JSON)
/// and extra headers (e.g. `Retry-After` on a 503), still framed into a
/// single `write_all`.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_response_typed(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut extra = String::new();
    for (name, value) in extra_headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n{extra}\r\n{body}",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> io::Result<Option<Request>> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body_and_close() {
        let req = parse(
            "POST /synthesize HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\n{\"\"}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"{\"\"}");
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse("nonsense\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nContent-Length: potato\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/99\r\n\r\n").is_err());
        // Truncated body.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
    }

    #[test]
    fn content_length_is_validated_strictly() {
        // `usize::parse` would accept the signed forms; the parser must
        // not (surrounding whitespace is already stripped as header OWS).
        for bad in ["+4", "-4", "0x10", "4.0", "4,4", ""] {
            let err = parse(&format!(
                "POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n{{}}{{}}"
            ))
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "`{bad}`: {err}");
        }
        // Plain digits still work.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{}");
        // Leading zeros are digits — tolerated.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 02\r\n\r\n{}")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn oversized_content_length_is_rejected_before_any_read() {
        // Over the cap, a usize-overflowing digit string, and an
        // absurdly long digit string: all fail with the 413 kind before
        // the parser attempts a body allocation or read (there is no
        // body here to read).
        for huge in [
            (MAX_BODY + 1).to_string(),
            u128::MAX.to_string(),
            "9".repeat(100),
        ] {
            let err = parse(&format!(
                "POST / HTTP/1.1\r\nContent-Length: {huge}\r\n\r\n"
            ))
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::FileTooLarge, "`{huge}`: {err}");
        }
        // Exactly at the cap the framing is accepted (the body itself is
        // then read — truncated here, so an UnexpectedEof I/O error).
        let err = parse(&format!(
            "POST / HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n"
        ))
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        // A chunked body must not be left on the socket to desync the
        // next keep-alive request.
        let err =
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("transfer-encoding"), "{err}");
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("multiple"), "{err}");
    }

    #[test]
    fn two_requests_on_one_connection() {
        let text = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(text.as_bytes());
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/a");
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/b");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn response_framing_is_parseable() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let mut out = Vec::new();
        write_response_typed(
            &mut out,
            503,
            "application/json",
            "{}",
            false,
            &[("Retry-After", "1")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        // The header block still terminates with exactly one blank line.
        assert_eq!(text.matches("\r\n\r\n").count(), 1, "{text}");
    }
}
