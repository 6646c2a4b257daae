//! `poll(2)` without a libc crate dependency.
//!
//! The workspace is dependency-free, so the I/O loop declares the one
//! syscall wrapper it blocks in directly against the platform C
//! library. `poll` is level-triggered and portable across every unix
//! target the daemon builds for; with the handful of descriptors a
//! daemon of this size watches, its O(n) scan costs less than the
//! syscall itself.

use std::io;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// Readable (or, on a listener, a connection is waiting).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition; reported whatever `events` asks for.
pub(crate) const POLLERR: c_short = 0x008;
/// Peer hung up; reported whatever `events` asks for.
pub(crate) const POLLHUP: c_short = 0x010;

/// `struct pollfd`, laid out as every unix C library declares it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: c_int, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

// glibc and musl declare `nfds_t` as `unsigned long`; the BSDs, macOS
// and bionic as `unsigned int`.
#[cfg(target_os = "linux")]
#[allow(non_camel_case_types)]
type nfds_t = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
#[allow(non_camel_case_types)]
type nfds_t = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes
/// (`None` waits forever), filling each entry's `revents`. Returns how
/// many entries have nonzero `revents`; a signal that interrupts the
/// wait returns `Ok(0)`, like a timeout.
///
/// A finite timeout is rounded *up* to whole milliseconds: rounding
/// down would turn the last sub-millisecond before a deadline into a
/// run of zero-timeout polls.
///
/// # Errors
///
/// Any other `poll(2)` failure, such as `ENOMEM`.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    };
    let nfds = nfds_t::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s and `nfds` is its length, so the kernel reads and writes
    // only inside it; the descriptors need not be valid (a closed one
    // comes back as POLLNVAL, not as undefined behaviour).
    let n = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(0)
        } else {
            Err(e)
        };
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_and_writable_and_times_out() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN | POLLOUT)];
        // Nothing to read yet, but the socket buffer has room.
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert_eq!(fds[0].revents, POLLOUT);

        a.write_all(&[7]).unwrap();
        fds[0].events = POLLIN;
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents, POLLIN);

        // Nothing ready: a short finite timeout returns zero.
        let (_c, d) = UnixStream::pair().unwrap();
        let mut idle = [PollFd::new(d.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut idle, Some(Duration::from_micros(1))).unwrap(), 0);
        assert_eq!(idle[0].revents, 0);
    }

    #[test]
    fn hangup_is_reported_even_when_not_asked_for() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), 0)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLHUP, 0);
    }
}
