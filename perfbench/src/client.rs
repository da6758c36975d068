//! A minimal keep-alive HTTP/1.1 client: one request in flight per
//! connection, each timed from the first byte written to the last byte
//! of the reply read.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One reply, with the client-observed latency of its request.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub latency: Duration,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one pre-rendered request and reads its whole reply.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        let started = Instant::now();
        self.writer.write_all(request)?;
        let (status, body) = read_reply(&mut self.reader)?;
        Ok(Reply {
            status,
            body,
            latency: started.elapsed(),
        })
    }
}

/// Renders a request with a JSON (or empty) body.
pub fn render(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn read_reply(reader: &mut impl BufRead) -> io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line `{}`", line.trim())))?;
    let mut length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other("bad content-length"))?;
            }
        }
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_framed_reply_and_leaves_the_next() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"ok\":true}HTTP/1.1 503 X\r\nContent-Length: 0\r\n\r\n";
        let mut reader = io::Cursor::new(&wire[..]);
        let (status, body) = read_reply(&mut reader).unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"{\"ok\":true}"[..]));
        let (status, body) = read_reply(&mut reader).unwrap();
        assert_eq!((status, body.len()), (503, 0));
        assert!(read_reply(&mut reader).is_err());
    }

    #[test]
    fn rendered_requests_parse_on_the_server_side() {
        let bytes = render("POST", "/census", r#"{"cb":3}"#);
        let request = mvq_serve::read_request(&mut io::Cursor::new(bytes))
            .unwrap()
            .unwrap();
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/census")
        );
        assert_eq!(request.body, br#"{"cb":3}"#);
        assert!(request.keep_alive());
    }
}
