//! An open-loop HTTP/1.1 load generator: one thread, a few keep-alive
//! connections, requests pipelined and sent when they are *due*.
//!
//! A closed-loop client only sends once the previous answer is back, so a
//! server stall silently delays every request that would have arrived
//! during it and those requests never show up as slow (coordinated
//! omission). Here every request has a due time fixed before the run,
//! is written when due whatever is outstanding, and its latency runs from
//! the due time to the last byte of its response. How late the generator
//! itself sent (`sent − due`) is kept per request, so a report can show
//! that the generator kept its schedule.
//!
//! The thread waits in `ppoll(2)` on every connection with a timeout that
//! ends at the next due time, so neither sending nor receiving is
//! delayed by a sleep granularity.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One request of a plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Offset of the due time from the start of the run.
    pub due: Duration,
    /// Connection index; requests on one connection are answered in order.
    pub conn: usize,
    /// Index into the payload table (complete raw HTTP requests).
    pub payload: usize,
}

/// What happened to one planned request (same index as the plan).
#[derive(Debug, Clone, Default)]
pub struct Done {
    /// HTTP status; 0 when the connection failed before an answer.
    pub status: u16,
    /// Due time → last response byte, microseconds.
    pub latency_us: u64,
    /// Due time → request handed to the socket, microseconds.
    pub lag_us: u64,
    /// Offset of the completion from the start of the run.
    pub done_at: Duration,
    /// Response body.
    pub body: Vec<u8>,
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    pub connections: usize,
    /// Give up on requests still unanswered this long after the last due
    /// time; they count as failed.
    pub grace: Duration,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until a socket is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `pollfd`
    // records for the call's duration; `ts` outlives the call; a null
    // signal mask leaves the mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    out: Vec<u8>,
    out_at: usize,
    inbuf: Vec<u8>,
    /// Plan indices written to this connection and not yet answered.
    outstanding: VecDeque<usize>,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<TcpStream> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        Ok(s)
    }

    fn ensure(&mut self) -> bool {
        if self.stream.is_none() {
            self.stream = Conn::connect(&self.addr).ok();
        }
        self.stream.is_some()
    }

    /// Drops the connection; everything in flight on it fails.
    fn fail(&mut self, done: &mut [Option<Done>], now: Duration) -> usize {
        self.stream = None;
        self.out.clear();
        self.out_at = 0;
        self.inbuf.clear();
        let mut n = 0;
        for i in self.outstanding.drain(..) {
            done[i] = Some(Done {
                done_at: now,
                ..Default::default()
            });
            n += 1;
        }
        n
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let Some(s) = self.stream.as_mut() else {
            return Ok(());
        };
        while self.out_at < self.out.len() {
            match s.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        Ok(())
    }

    /// Reads what is available; returns `false` on EOF or error.
    fn fill(&mut self) -> bool {
        let Some(s) = self.stream.as_mut() else {
            return false;
        };
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

/// Splits one complete response off the front of `buf`:
/// `(status, body, bytes consumed)`. `Err` on a malformed head.
pub fn take_response(buf: &[u8]) -> Result<Option<(u16, Vec<u8>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("no status code")?;
    let mut len = 0usize;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().map_err(|_| "bad Content-Length")?;
            }
        }
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((status, buf[head_end + 4..total].to_vec(), total)))
}

/// Runs `plan` (sorted by due time) against `addr` and returns one
/// [`Done`] per planned request, in plan order.
pub fn run(addr: &str, plan: &[Planned], payloads: &[Vec<u8>], opts: &Options) -> Vec<Done> {
    debug_assert!(
        plan.windows(2).all(|w| w[0].due <= w[1].due),
        "plan must be sorted"
    );
    let mut conns: Vec<Conn> = (0..opts.connections.max(1))
        .map(|_| Conn {
            addr: addr.to_string(),
            stream: None,
            out: Vec::new(),
            out_at: 0,
            inbuf: Vec::new(),
            outstanding: VecDeque::new(),
        })
        .collect();
    for c in &mut conns {
        c.ensure();
    }
    let mut done: Vec<Option<Done>> = vec![None; plan.len()];
    let mut sent_at: Vec<Duration> = vec![Duration::ZERO; plan.len()];
    let mut remaining = plan.len();
    let mut next = 0usize;
    let last_due = plan.last().map_or(Duration::ZERO, |p| p.due);
    let start = Instant::now();

    while remaining > 0 {
        let now = start.elapsed();
        while next < plan.len() && plan[next].due <= now {
            let n_conns = conns.len();
            let c = &mut conns[plan[next].conn % n_conns];
            if c.ensure() {
                c.out.extend_from_slice(&payloads[plan[next].payload]);
                sent_at[next] = start.elapsed();
                c.outstanding.push_back(next);
            } else {
                done[next] = Some(Done {
                    done_at: now,
                    ..Default::default()
                });
                remaining -= 1;
            }
            next += 1;
        }
        for c in &mut conns {
            if c.flush().is_err() {
                remaining -= c.fail(&mut done, start.elapsed());
            }
        }

        // Wait for an answer, writable space, or the next due time.
        let until_due = if next < plan.len() {
            plan[next].due.saturating_sub(start.elapsed())
        } else {
            Duration::from_millis(50)
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_ref().map_or(-1, |s| s.as_raw_fd()),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        if !until_due.is_zero() {
            wait(&mut fds, until_due);
        }

        for c in &mut conns {
            if c.stream.is_none() || c.outstanding.is_empty() && c.out.is_empty() {
                // Idle connection: still notice a server-side close.
                if c.stream.is_some() && !c.fill() {
                    c.stream = None;
                }
                continue;
            }
            let alive = c.fill();
            loop {
                match take_response(&c.inbuf) {
                    Ok(Some((status, body, used))) => {
                        c.inbuf.drain(..used);
                        let Some(i) = c.outstanding.pop_front() else {
                            break;
                        };
                        let at = start.elapsed();
                        done[i] = Some(Done {
                            status,
                            latency_us: at.saturating_sub(plan[i].due).as_micros() as u64,
                            lag_us: sent_at[i].saturating_sub(plan[i].due).as_micros() as u64,
                            done_at: at,
                            body,
                        });
                        remaining -= 1;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        remaining -= c.fail(&mut done, start.elapsed());
                        break;
                    }
                }
            }
            if !alive {
                remaining -= c.fail(&mut done, start.elapsed());
            }
        }

        if start.elapsed() > last_due + opts.grace {
            // Whatever is still unanswered has failed; dropping the
            // connections on return closes them.
            let now = start.elapsed();
            for d in done.iter_mut().filter(|d| d.is_none()) {
                *d = Some(Done {
                    done_at: now,
                    ..Default::default()
                });
            }
            break;
        }
    }
    done.into_iter().map(Option::unwrap_or_default).collect()
}

/// Due times of a Poisson arrival process at `rate` per second over
/// `span`, starting at `from`, drawn from `rng`.
pub fn poisson(
    rate: f64,
    from: Duration,
    span: Duration,
    rng: &mut gale_tensor::Rng,
) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 − U keeps ln away from 0.
        t += -(1.0 - rng.f64()).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(from + Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection HTTP stub that answers every request with `{}`,
    /// except that before answering request number `stall_at` it sleeps
    /// for `stall` — once.
    fn stub_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0usize;
            loop {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    if s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                        .is_err()
                    {
                        return served;
                    }
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return served,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_up_in_every_request_queued_behind_it() {
        let stall = Duration::from_millis(300);
        let (addr, server) = stub_server(50, stall);
        // 500 requests/s for 0.8 s, one every 2 ms; request 50 is due at
        // 100 ms and the server freezes for 300 ms before answering it.
        let plan: Vec<Planned> = (0..400)
            .map(|i| Planned {
                due: Duration::from_millis(2 * i as u64),
                conn: 0,
                payload: 0,
            })
            .collect();
        let payloads = vec![b"GET / HTTP/1.1\r\nHost: stub\r\n\r\n".to_vec()];
        let opts = Options {
            connections: 1,
            grace: Duration::from_secs(5),
        };
        let done = run(&addr, &plan, &payloads, &opts);
        drop(server);
        assert!(
            done.iter().all(|d| d.status == 200),
            "every request answered"
        );
        // Requests due during the stall (100..400 ms) wait for its end; a
        // closed-loop client would have shown one slow request instead.
        let slow = done.iter().filter(|d| d.latency_us >= 100_000).count();
        assert!(slow >= 90, "only {slow} requests carry the stall");
        let worst = done.iter().map(|d| d.latency_us).max().unwrap();
        assert!(
            worst >= 280_000,
            "worst latency {worst} us misses the stall"
        );
        // The generator itself kept sending on schedule through the stall.
        let mut lags: Vec<u64> = done.iter().map(|d| d.lag_us).collect();
        lags.sort_unstable();
        assert!(
            lags[lags.len() * 99 / 100] < 20_000,
            "generator fell behind: {lags:?}"
        );
        // Latencies fall back once the backlog drains.
        assert!(done[399].latency_us < 50_000, "backlog never drained");
    }

    #[test]
    fn responses_split_at_content_length() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        let (status, body, used) = take_response(two).unwrap().unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"{}"[..]));
        let (status, body, _) = take_response(&two[used..]).unwrap().unwrap();
        assert_eq!((status, body.len()), (503, 0));
        assert!(take_response(&two[..10]).unwrap().is_none());
        assert!(take_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn poisson_arrivals_hit_their_rate() {
        let mut rng = gale_tensor::Rng::seed_from_u64(7);
        let due = poisson(
            1000.0,
            Duration::from_secs(1),
            Duration::from_secs(4),
            &mut rng,
        );
        assert!((3800..4200).contains(&due.len()), "{} arrivals", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due[0] >= Duration::from_secs(1) && *due.last().unwrap() < Duration::from_secs(5));
    }
}
