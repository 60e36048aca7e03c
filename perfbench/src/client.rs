//! A minimal keep-alive HTTP/1.1 client: one request at a time over one
//! connection, `Content-Length` framed responses (all the daemon sends).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One persistent connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends one request and returns `(status, body)`. Reconnects once if
    /// the server closed the connection between requests.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        match self.try_request(method, path, body) {
            Err(e)
                if e.kind() == io::ErrorKind::UnexpectedEof
                    || e.kind() == io::ErrorKind::BrokenPipe =>
            {
                *self = Conn::connect(self.addr)?;
                self.try_request(method, path, body)
            }
            other => other,
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: text/csv\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        let mut msg = Vec::with_capacity(head.len() + body.len());
        msg.extend_from_slice(head.as_bytes());
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head".into()))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line in {head:?}")))?;
        let mut len = 0usize;
        let mut close = false;
        for l in lines {
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad length {v:?}")))?;
                } else if k.eq_ignore_ascii_case("connection") {
                    close = v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            self.fill()?;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        if close {
            *self = Conn::connect(self.addr)?;
        }
        Ok((status, body))
    }
}
