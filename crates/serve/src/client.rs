//! Minimal HTTP client helpers for talking to a running daemon — used
//! by the CLI (`selfmaint serve --submit …` style tooling), the test
//! suites, and the bench harness. One request per connection, mirroring
//! the server's `Connection: close` discipline. JSON bodies are read
//! with `serde_json::from_str`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response: status code plus body bytes as text.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body (UTF-8 lossy).
    pub body: String,
}

/// One request against `127.0.0.1:port`.
pub fn request(port: u16, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = match text.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    Ok(Response { status, body })
}

/// Submit a job spec line; returns the assigned id on 202.
pub fn submit(port: u16, spec_line: &str) -> Result<u64, String> {
    let resp = request(port, "POST", "/v1/jobs", spec_line).map_err(|e| e.to_string())?;
    if resp.status != 202 {
        return Err(format!("submit rejected ({}): {}", resp.status, resp.body));
    }
    serde_json::from_str(&resp.body)
        .ok()
        .and_then(|v| v["id"].as_u64())
        .ok_or_else(|| format!("no id in response: {}", resp.body))
}

/// Poll `GET /v1/jobs/<id>` until the job reaches a terminal state
/// (`done`, `failed`, or `parked`) or the deadline passes. Returns the
/// final state label.
pub fn wait_terminal(port: u16, id: u64, deadline: Duration) -> Result<String, String> {
    // lint:allow(wall-clock): client-side polling deadline, never
    // simulation input.
    let start = std::time::Instant::now();
    loop {
        let resp =
            request(port, "GET", &format!("/v1/jobs/{id}"), "").map_err(|e| e.to_string())?;
        if let Ok(v) = serde_json::from_str(&resp.body) {
            if let Some(state @ ("done" | "failed" | "parked")) = v["state"].as_str() {
                return Ok(state.to_string());
            }
        }
        if start.elapsed() > deadline {
            return Err(format!(
                "job {id} not terminal before deadline: {}",
                resp.body
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Fetch a finished job's output bytes.
pub fn fetch_output(port: u16, id: u64) -> Result<String, String> {
    let resp =
        request(port, "GET", &format!("/v1/jobs/{id}/output"), "").map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!(
            "output not available ({}): {}",
            resp.status, resp.body
        ));
    }
    Ok(resp.body)
}

/// Open `/v1/stream` and return the reader positioned after the response
/// headers; callers consume journal lines until EOF.
pub fn open_stream(port: u16) -> io::Result<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    write!(stream, "GET /v1/stream HTTP/1.1\r\nHost: localhost\r\n\r\n")?;
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed during headers",
            ));
        }
        if line.trim_end().is_empty() {
            return Ok(reader);
        }
    }
}

#[cfg(test)]
mod tests {
    /// Bodies exactly as the server renders them (compact, no spaces).
    #[test]
    fn from_str_reads_server_authored_bodies() {
        let v =
            serde_json::from_str(r#"{"id":42,"state":"done","attempts":2,"message":""}"#).unwrap();
        assert_eq!(v["id"].as_u64(), Some(42));
        assert_eq!(v["attempts"].as_u64(), Some(2));
        assert_eq!(v["state"].as_str(), Some("done"));
        assert_eq!(v["message"].as_str(), Some(""));
        assert_eq!(v["missing"].as_u64(), None);
        assert_eq!(v["id"].as_str(), None, "numbers are not strings");
    }

    /// A message with escaped quotes reads back whole. Spec-parse and
    /// panic messages quote tokens with `{:?}`, so the server's JSON
    /// carries `\"` escapes inside string values.
    #[test]
    fn escaped_quotes_inside_a_message_read_back_whole() {
        let body = serde_json::to_string(&serde_json::json!({
            "message": "panicked at 'unknown \"x\"'"
        }))
        .unwrap();
        assert_eq!(body, r#"{"message":"panicked at 'unknown \"x\"'"}"#);
        let v = serde_json::from_str(&body).unwrap();
        assert_eq!(v["message"].as_str(), Some("panicked at 'unknown \"x\"'"));
    }
}
