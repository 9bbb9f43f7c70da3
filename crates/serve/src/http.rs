//! A deliberately minimal HTTP/1.1 layer: request line + headers +
//! `Content-Length` body in, status line + JSON body out.
//!
//! The daemon speaks exactly the subset curl and load balancers need —
//! one request per connection (`Connection: close`), no chunked encoding,
//! no keep-alive, no TLS. Anything outside the subset is answered with a
//! `400` by the caller; the parser itself never panics (every error is a
//! [`HttpError`] value).

use std::io::{BufRead, Read, Take, Write};

/// The most bytes the request line and headers may take together. A
/// longer head is answered `400` once this many bytes are read, so a
/// client streaming a header without `\n` cannot grow the daemon's memory
/// past it (the body has its own cap, `max_body`).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The connection failed mid-read (includes read timeouts).
    Io(std::io::Error),
    /// The bytes on the wire are not the supported HTTP subset.
    BadRequest(String),
    /// The declared `Content-Length` exceeds the configured cap.
    TooLarge {
        /// Declared body size in bytes.
        declared: usize,
        /// Configured maximum body size in bytes.
        limit: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request path without query string (`/link`).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Reads one request from `stream`, capping the request line and headers
/// at [`MAX_HEAD_BYTES`] and the body at `max_body` bytes.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut head = stream.by_ref().take(MAX_HEAD_BYTES as u64);
    let line = read_head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_uppercase(), t),
        _ => return Err(HttpError::BadRequest(format!("malformed request line {line:?}"))),
    };
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: usize = 0;
    loop {
        let header = read_head_line(&mut head)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad content-length {value:?}")))?;
            }
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge { declared: content_length, limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Request { method, path, body })
}

/// Reads one line of the request head; a line cut off by the head cap is a
/// `BadRequest`, one cut off by the end of the stream is returned as is.
fn read_head_line(head: &mut Take<impl BufRead>) -> Result<String, HttpError> {
    let mut line = String::new();
    head.read_line(&mut line).map_err(HttpError::Io)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(HttpError::BadRequest(format!(
            "request line and headers exceed {MAX_HEAD_BYTES} bytes"
        )));
    }
    Ok(line)
}

/// Writes a response with the given status and JSON(L) body, then flushes.
/// The connection is advertised as closing — the daemon is strictly
/// one-request-per-connection.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Serializes `{"error": msg}` for an error response body.
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", adamel_obs::json::escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /link HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
            .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/link");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_get_without_body_and_strips_query() {
        let req = parse("GET /healthz?verbose=1 HTTP/1.1\r\n\r\n").expect("valid request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert!(matches!(parse("NONSENSE\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::TooLarge { declared: 9999, limit: 1024 })
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn head_past_the_cap_is_a_bad_request_read_no_further_than_the_cap() {
        let raw = format!("GET /healthz HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(1 << 20));
        let mut reader = raw.as_bytes();
        let err = read_request(&mut reader, 1024).expect_err("head over the cap");
        assert!(matches!(&err, HttpError::BadRequest(msg) if msg.contains("65536")), "{err}");
        assert_eq!(raw.len() - reader.len(), MAX_HEAD_BYTES, "consumed past the cap");
        // A head of exactly the cap is read; one byte more is refused.
        let head = |pad: usize| format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(pad));
        let pad = MAX_HEAD_BYTES - head(0).len();
        assert_eq!(parse(&head(pad)).expect("head of exactly the cap").path, "/");
        assert!(matches!(parse(&head(pad + 1)), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn response_has_content_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "Too Many Requests", "{\"error\": \"queue full\"}\n")
            .expect("write to Vec");
        let text = String::from_utf8(out).expect("ascii response");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 24\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("{\"error\": \"queue full\"}\n"));
    }
}
