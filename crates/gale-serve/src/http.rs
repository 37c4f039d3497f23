//! A deliberately minimal HTTP/1.1 layer: request parsing and response
//! rendering for the inference endpoints.
//!
//! [`parse_request`] is incremental and buffer-based: the non-blocking
//! event loop appends whatever bytes the socket has and asks for the next
//! complete request; pipelined requests come out one `(request, consumed)`
//! pair at a time.
//!
//! HTTP/1.1 requests default to keep-alive (`Connection: close` opts out);
//! HTTP/1.0 defaults to close (`Connection: keep-alive` opts in). Responses
//! carry whichever the server decided via the `keep_alive` argument of the
//! render functions. Header and body sizes are capped so a misbehaving
//! client cannot make the server buffer unbounded input.

/// Maximum accepted size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response,
    /// following the version default and any `Connection` header.
    pub keep_alive: bool,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not a well-formed HTTP/1.1 request, or
    /// exceed the size caps.
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
        }
    }
}

/// Everything the head carries that the server cares about.
struct Head {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
}

/// Parses a complete request head (everything before the blank line).
fn parse_head(head: &str) -> Result<Head, HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }
    // HTTP/1.1 (and anything newer in the 1.x line) defaults to
    // keep-alive; HTTP/1.0 defaults to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::Malformed(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }
    Ok(Head {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        content_length,
        keep_alive,
    })
}

/// Tries to parse one complete request off the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when `buf` starts with a full
/// request (`consumed` bytes long — the caller drains them and may call
/// again for the next pipelined request), `Ok(None)` when more bytes are
/// needed, and `Err` when the front of the buffer can never become a valid
/// request (oversized or malformed head) — the connection should answer
/// `400` and close.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("request head too large".into()));
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::Malformed("request head too large".into()));
    }
    let head_str = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
    let head = parse_head(head_str)?;
    let total = head_end + 4 + head.content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Request {
            method: head.method,
            path: head.path,
            body: buf[head_end + 4..total].to_vec(),
            keep_alive: head.keep_alive,
        },
        total,
    )))
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Renders a full response into bytes. `extra_headers` lets callers attach
/// fields like `Retry-After`; `keep_alive` picks the `Connection` header.
pub fn render_response(
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Renders a JSON response into bytes.
pub fn render_json(
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &gale_json::Value,
    keep_alive: bool,
) -> Vec<u8> {
    render_response(
        status,
        reason,
        "application/json",
        extra_headers,
        body.to_string_compact().as_bytes(),
        keep_alive,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one complete request.
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        parse_request(raw).map(|parsed| parsed.expect("a complete request").0)
    }

    #[test]
    fn parses_request_with_body() {
        let req =
            parse(b"POST /score HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/score");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_request_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(b"nonsense\r\n\r\n").is_err());
        assert!(parse(b"GET /x SMTP/9\r\n\r\n").is_err());
        assert!(parse(b"GET /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n").is_err());
    }

    #[test]
    fn connection_header_overrides_version_default() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn incremental_parse_waits_for_full_request() {
        let raw = b"POST /score HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        // Every strict prefix is incomplete, never an error.
        for cut in 0..raw.len() {
            assert!(
                parse_request(&raw[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes parsed as complete"
            );
        }
        let (req, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn incremental_parse_splits_pipelined_requests() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /score HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let (first, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let (second, consumed2) = parse_request(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/score");
        assert_eq!(second.body, b"hi");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn incremental_parse_rejects_oversized_head() {
        let mut raw = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
        assert!(matches!(parse_request(&raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn rendered_response_carries_connection_header() {
        let bytes = render_response(200, "OK", "text/plain", &[], b"hi", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        let bytes = render_response(200, "OK", "text/plain", &[], b"hi", false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }
}
