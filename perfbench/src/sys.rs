//! The three system calls std does not expose: `wait4` for a child's
//! resource usage, `kill` for an overdue child, and `ppoll` to sleep
//! until a socket is ready or a deadline passes, with sub-millisecond
//! precision and no busy polling.

use std::io;
use std::os::fd::AsRawFd;
use std::ptr;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("these bindings assume the 64-bit Linux struct layouts");

/// `struct timeval`.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals, then 14 longs of which `ru_maxrss` is
/// the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const SIGKILL: i32 = 9;
const EINTR: i32 = 4;
/// `POLLIN`: data to read.
pub const READABLE: i16 = 0x1;
/// `POLLOUT`: room to write.
pub const WRITABLE: i16 = 0x4;

extern "C" {
    #[link_name = "wait4"]
    fn c_wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    #[link_name = "kill"]
    fn c_kill(pid: i32, sig: i32) -> i32;
    #[link_name = "ppoll"]
    fn c_ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Blocks until child `pid` exits and reaps it: `(wait status,
/// ru_maxrss in KiB)`.
pub fn wait4(pid: i32) -> Result<(i32, i64), String> {
    loop {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` that wait4 writes on 64-bit
        // Linux (other targets fail the `compile_error!` above).
        let r = unsafe { c_wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage.ru_maxrss));
        }
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(format!("wait4({pid}): {e}"));
        }
    }
}

/// Sends SIGKILL to `pid`, a child not yet reaped.
pub fn kill(pid: i32) {
    // SAFETY: kill takes plain integers and touches no memory of ours;
    // the caller guarantees `pid` is its own unreaped child, so the pid
    // has not been recycled.
    unsafe {
        c_kill(pid, SIGKILL);
    }
}

/// Sleeps until `socket` is ready for `events` ([`READABLE`],
/// [`WRITABLE`]) or `timeout` passes, whichever is first. An
/// interrupted sleep returns early, which callers treat like a timeout.
pub fn wait_ready(socket: &impl AsRawFd, events: i16, timeout: Duration) {
    let mut fd = PollFd { fd: socket.as_raw_fd(), events, revents: 0 };
    let timeout = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` is one live, writable `struct pollfd` (nfds = 1) and
    // `timeout` a live `struct timespec`; a null sigmask leaves the
    // signal mask alone. The descriptor is borrowed from `socket`, which
    // outlives the call.
    unsafe {
        c_ppoll(&mut fd, 1, &timeout, ptr::null());
    }
}
