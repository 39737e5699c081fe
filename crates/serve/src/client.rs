//! A tiny blocking client for the line protocol, shared by the CLI's
//! `--connect` mode, the integration tests and the QPS bench.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Value;

/// One connection speaking the line-delimited JSON protocol.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects and applies the standard socket options (nodelay, 30 s
    /// read timeout).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// Sends one request line and reads one response line (both without
    /// the trailing newline).
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.stream.write_all(&out)?;
        self.read_line()
    }

    /// Sends one request line and decodes the response JSON.
    pub fn request(&mut self, line: &str) -> std::io::Result<Value> {
        let resp = self.roundtrip(line)?;
        serde_json::from_str(&resp).map_err(|e| {
            std::io::Error::new(
                ErrorKind::InvalidData,
                format!("undecodable response `{resp}`: {e}"),
            )
        })
    }

    /// Reads one line from the connection.
    fn read_line(&mut self) -> std::io::Result<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line_bytes: Vec<u8> = self.buf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line_bytes[..pos])
                    .trim_end_matches('\r')
                    .to_string();
                return Ok(line);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}
