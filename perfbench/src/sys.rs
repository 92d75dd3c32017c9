//! The two Linux calls the load generator needs that `std` does not
//! offer: `ppoll` (wait on both connections *and* a nanosecond deadline
//! from one thread — socket read timeouts round to scheduler ticks) and
//! `prctl(PR_SET_TIMERSLACK)` (so that deadline is not deferred by the
//! default 50 µs timer slack).

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark's load generator needs 64-bit Linux (ppoll, prctl)");

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const PR_SET_TIMERSLACK: i32 = 29;

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

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Waits until one of `fds` is readable — or, where its flag is set,
/// writable — or `timeout` passes. Returns which descriptors are readable
/// (bytes, EOF or an error are waiting); a writable one only ends the
/// wait, so the caller's next flush can go on. At most 8 descriptors.
pub fn wait(fds: &[(RawFd, bool)], timeout: Duration) -> io::Result<[bool; 8]> {
    assert!(fds.len() <= 8, "wait takes at most 8 descriptors");
    let mut poll: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, out)| PollFd {
            fd,
            events: if out { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `poll` is a live, correctly laid out `struct pollfd` array
    // of `poll.len()` entries, `ts` is a live `struct timespec`, and
    // a null signal mask is allowed.
    let rc = unsafe { ppoll(poll.as_mut_ptr(), poll.len() as u64, &ts, std::ptr::null()) };
    let mut readable = [false; 8];
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(readable)
        } else {
            Err(err)
        };
    }
    for (r, p) in readable.iter_mut().zip(&poll) {
        *r = p.revents & (POLLIN | POLLERR | POLLHUP) != 0;
    }
    Ok(readable)
}

/// Sets this thread's timer slack to 1 ns, so sleeps and `ppoll`
/// deadlines fire when asked instead of up to 50 µs late. Best effort:
/// on failure the generator only runs later, which it measures anyway.
pub fn fine_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}
