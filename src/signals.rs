//! SIGTERM/SIGINT handling without any dependency: a C signal handler
//! flips one flag, and the program polls it and runs its own graceful
//! shutdown. `eend-serve` drains the daemon (stop accepting, let the
//! in-flight record land durably, flush stores, exit 0); `eend-cli
//! loadgen` stops submitting and drains its in-process daemon.
//!
//! It lives in the facade crate so the `unsafe` FFI call stays out of
//! the library crates. On non-unix targets [`install`] does nothing and
//! [`requested`] is always `false`.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    TERMINATED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Routes SIGINT and SIGTERM to the flag [`requested`] reads.
pub fn install() {
    #[cfg(unix)]
    unsafe {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Whether SIGINT or SIGTERM has arrived since [`install`].
pub fn requested() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}
