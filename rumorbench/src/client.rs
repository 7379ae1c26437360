//! A small HTTP/1.1 client. It asks for `Connection: keep-alive`, reuses
//! the connection while the server allows it, reconnects after the
//! server answers `Connection: close`, and counts every TCP connect.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
    pub connects: u64,
}

fn io_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: Vec::new(),
            connects: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        self.connects += 1;
        self.conn = Some(stream);
        self.buf.clear();
        Ok(())
    }

    /// Sends one request and reads the whole response. `on_chunk` sees
    /// each chunk of a chunked body as it arrives.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        on_chunk: &mut dyn FnMut(&[u8]),
    ) -> std::io::Result<Response> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, body, on_chunk) {
            // A kept-alive connection the server has meanwhile closed
            // fails before any response byte: reconnect once.
            Err(e)
                if reused
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::UnexpectedEof
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                    ) =>
            {
                self.conn = None;
                self.try_request(method, path, body, on_chunk)
            }
            other => other,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        on_chunk: &mut dyn FnMut(&[u8]),
    ) -> std::io::Result<Response> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let mut msg =
            format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n")
                .into_bytes();
        if method == "POST" {
            msg.extend_from_slice(
                format!(
                    "Content-Type: application/json\r\nContent-Length: {}\r\n",
                    body.len()
                )
                .as_bytes(),
            );
        }
        msg.extend_from_slice(b"\r\n");
        msg.extend_from_slice(body);
        let result = self.exchange(&msg, on_chunk);
        if !matches!(result, Ok((_, true))) {
            self.conn = None;
            self.buf.clear();
        }
        result.map(|(response, _)| response)
    }

    /// Writes `msg`, reads one response; also says whether the
    /// connection may be reused.
    fn exchange(
        &mut self,
        msg: &[u8],
        on_chunk: &mut dyn FnMut(&[u8]),
    ) -> std::io::Result<(Response, bool)> {
        self.conn
            .as_mut()
            .expect("connected above")
            .write_all(msg)?;
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            if self.fill()? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ));
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end + 4);
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io_err(format!("bad status line in {head:?}")))?;
        let mut length = None;
        let mut chunked = false;
        let mut keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(value.parse::<usize>().map_err(|_| io_err("bad length"))?)
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let body = if chunked {
            self.read_chunked(on_chunk)?
        } else if let Some(n) = length {
            while self.buf.len() < n {
                if self.fill()? == 0 {
                    return Err(io_err("connection closed inside a body"));
                }
            }
            self.buf.drain(..n).collect()
        } else {
            keep_alive = false;
            while self.fill()? > 0 {}
            std::mem::take(&mut self.buf)
        };
        Ok((Response { status, body }, keep_alive))
    }

    fn read_chunked(&mut self, on_chunk: &mut dyn FnMut(&[u8])) -> std::io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let line_end = loop {
                if let Some(pos) = find(&self.buf, b"\r\n") {
                    break pos;
                }
                if self.fill()? == 0 {
                    return Err(io_err("stream ended inside a chunk header"));
                }
            };
            let size_text = String::from_utf8_lossy(&self.buf[..line_end]).into_owned();
            let size = usize::from_str_radix(size_text.trim(), 16)
                .map_err(|_| io_err(format!("bad chunk size {size_text:?}")))?;
            while self.buf.len() < line_end + 2 + size + 2 {
                if self.fill()? == 0 {
                    return Err(io_err("stream ended inside a chunk"));
                }
            }
            let chunk: Vec<u8> = self.buf[line_end + 2..line_end + 2 + size].to_vec();
            self.buf.drain(..line_end + 2 + size + 2);
            if size == 0 {
                return Ok(body);
            }
            on_chunk(&chunk);
            body.extend_from_slice(&chunk);
        }
    }

    fn fill(&mut self) -> std::io::Result<usize> {
        let mut tmp = [0u8; 16 * 1024];
        let n = self
            .conn
            .as_mut()
            .expect("connected above")
            .read(&mut tmp)?;
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(n)
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, b"", &mut |_| {})
    }

    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, body.as_bytes(), &mut |_| {})
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Answers each request on a connection; the `n`-th response on a
    /// connection says `Connection: close` when `close_after(n)`.
    fn serve(listener: TcpListener, connections: usize, close_after: fn(usize) -> bool) {
        for _ in 0..connections {
            let (mut stream, _) = listener.accept().unwrap();
            let mut n = 0;
            let mut buf = Vec::new();
            loop {
                let mut tmp = [0u8; 1024];
                let got = stream.read(&mut tmp).unwrap();
                if got == 0 {
                    break;
                }
                buf.extend_from_slice(&tmp[..got]);
                while let Some(end) = find(&buf, b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    n += 1;
                    let close = close_after(n);
                    let conn = if close { "close" } else { "keep-alive" };
                    let reply = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: {conn}\r\n\r\nok"
                    );
                    stream.write_all(reply.as_bytes()).unwrap();
                    if close {
                        break;
                    }
                }
                if close_after(n) {
                    break;
                }
            }
        }
    }

    #[test]
    fn reuses_a_kept_alive_connection_and_reconnects_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, 2, |n| n == 3));
        let mut client = Client::new(addr);
        for _ in 0..4 {
            let r = client.get("/healthz").unwrap();
            assert_eq!((r.status, r.body.as_slice()), (200, &b"ok"[..]));
        }
        // Three answers on the first connection (the third said close),
        // the fourth on a second one.
        assert_eq!(client.connects, 2);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn decodes_a_chunked_body_chunk_by_chunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut tmp = [0u8; 1024];
            let _ = stream.read(&mut tmp).unwrap();
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
                      3\r\n{a}\r\n4\r\n{bc}\r\n0\r\n\r\n",
                )
                .unwrap();
        });
        let mut client = Client::new(addr);
        let mut chunks = Vec::new();
        let r = client
            .request("GET", "/v1/jobs/x/stream", b"", &mut |c| {
                chunks.push(c.to_vec())
            })
            .unwrap();
        assert_eq!(r.body, b"{a}{bc}");
        assert_eq!(chunks, vec![b"{a}".to_vec(), b"{bc}".to_vec()]);
        server.join().unwrap();
    }
}
