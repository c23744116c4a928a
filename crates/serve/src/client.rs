//! A minimal blocking client for the serving protocol: frame the
//! request, read frames back, match responses to requests by batch id.

use crate::protocol::{self, BatchResult, Response};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use wts_ir::Method;

/// One connection to a serving instance.
///
/// The client may pipeline: [`send`](ServeClient::send) any number of
/// batches, then collect responses — the server may answer out of
/// order (batches land on different workers), so
/// [`recv_for`](ServeClient::recv_for) buffers mismatched ids until the
/// requested one arrives.
#[derive(Debug)]
pub struct ServeClient {
    /// The connection, buffered for reads; writes go to the socket
    /// itself, one per frame.
    stream: BufReader<TcpStream>,
    out_of_order: HashMap<u64, Response>,
}

impl ServeClient {
    /// Connects to a serving instance.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        // A request is one small write; Nagle could hold it for the
        // server's delayed ACK on every batch.
        let _ = stream.set_nodelay(true);
        Ok(ServeClient { stream: BufReader::new(stream), out_of_order: HashMap::new() })
    }

    /// Sends one batch request without waiting for the response.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn send(&mut self, batch_id: u64, benchmark: &str, methods: &[Method]) -> io::Result<()> {
        protocol::write_frame(self.stream.get_mut(), &protocol::encode_batch_request(batch_id, benchmark, methods))
    }

    /// Reads the next response frame, whichever batch it answers.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] when the server closed the
    /// connection, [`io::ErrorKind::InvalidData`] on an undecodable
    /// frame, and any underlying I/O error otherwise.
    pub fn recv(&mut self) -> io::Result<Response> {
        let payload = protocol::read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))?;
        protocol::decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Reads responses until `batch_id`'s arrives, buffering any other
    /// batches' responses for later `recv_for` calls.
    ///
    /// # Errors
    ///
    /// As [`recv`](ServeClient::recv).
    pub fn recv_for(&mut self, batch_id: u64) -> io::Result<Response> {
        if let Some(resp) = self.out_of_order.remove(&batch_id) {
            return Ok(resp);
        }
        loop {
            let resp = self.recv()?;
            match &resp {
                Response::Batch(BatchResult { batch_id: got, .. }) | Response::Busy { batch_id: got, .. }
                    if *got != batch_id =>
                {
                    self.out_of_order.insert(*got, resp);
                }
                _ => return Ok(resp),
            }
        }
    }

    /// Sends one batch and waits for its response.
    ///
    /// # Errors
    ///
    /// As [`send`](ServeClient::send) and [`recv_for`](ServeClient::recv_for).
    pub fn request(&mut self, batch_id: u64, benchmark: &str, methods: &[Method]) -> io::Result<Response> {
        self.send(batch_id, benchmark, methods)?;
        self.recv_for(batch_id)
    }

    /// Sends one batch and retries (bounded) while the server sheds it,
    /// so callers that need an answer — not a load probe — get one.
    ///
    /// # Errors
    ///
    /// As [`request`](ServeClient::request); additionally
    /// [`io::ErrorKind::WouldBlock`] when the server stayed busy through
    /// every retry.
    pub fn request_with_retry(
        &mut self,
        batch_id: u64,
        benchmark: &str,
        methods: &[Method],
        retries: usize,
    ) -> io::Result<Response> {
        for attempt in 0..=retries {
            match self.request(batch_id, benchmark, methods)? {
                Response::Busy { .. } if attempt < retries => {
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt.min(6)));
                }
                resp => return Ok(resp),
            }
        }
        Err(io::Error::new(io::ErrorKind::WouldBlock, format!("batch {batch_id} shed through {retries} retries")))
    }
}
