//! The edge reactor's one I/O seam, [`Transport`], and its production
//! implementation, [`Selector`]: epoll over non-blocking `std::net` sockets.
//!
//! The edge is built without external crates, so this module talks to the
//! kernel directly: `epoll` via raw `extern "C"` syscall declarations (the
//! subset `mio`/`libc` would provide — create, ctl, wait, plus a self-wake
//! pipe). Everything is level-triggered: a socket
//! that still has unread bytes or unflushed write space keeps reporting
//! ready, so the reactor never needs to remember edge state across turns
//! and a missed event is impossible by construction.
//!
//! Linux is the only target: there is no second selector and no second
//! serving loop. A failed `epoll_create1`, `pipe2` or `epoll_ctl` is an
//! `io::Error` the caller gets from [`Selector::new`] / `register`.
//!
//! Tokens are caller-chosen `u64`s (the reactor uses connection ids, plus
//! reserved values for the listener, the follower link and the wake pipe).

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;

/// Every I/O call an edge reactor makes, and nothing else: the readiness
/// wait, accept, the streams' reads and vectored writes (`Read`/`Write` on
/// [`Transport::Stream`]), write-interest arming, deregistration and
/// shutdown, and the wake of a reactor's mailbox from another thread.
///
/// [`Selector`] is the one production implementation; the edge's tests run
/// the same reactor turn over an in-memory one. The clock is not part of
/// the seam: a turn takes its instant as an argument.
pub trait Transport {
    /// A connection's (or the follower link's) byte stream. Reads and
    /// writes never block: `WouldBlock` means "not now".
    type Stream: io::Read + io::Write + Send;
    /// What another thread holds to interrupt [`wait`](Transport::wait).
    type Waker: Send + Sync;

    /// Blocks until readiness, a wake, or `timeout_ms` elapses, and
    /// returns the readiness per token (the listener's under
    /// [`LISTENER_TOKEN`]); empty on a timeout or a wake.
    fn wait(&mut self, timeout_ms: i32) -> io::Result<&[Event]>;

    /// The next inbound connection; `WouldBlock` when none is waiting (or
    /// this transport holds no listener).
    fn accept(&mut self) -> io::Result<Self::Stream>;

    /// Makes `stream` non-blocking and watches it for reads under `token`.
    fn register(&mut self, stream: &Self::Stream, token: u64) -> io::Result<()>;

    /// Adds or removes write-readiness interest for a registered stream.
    fn set_write_interest(
        &mut self,
        stream: &Self::Stream,
        token: u64,
        want_write: bool,
    ) -> io::Result<()>;

    /// Stops watching `stream` (it moves to another reactor). Dropping a
    /// stream stops the watch too.
    fn deregister(&mut self, stream: &Self::Stream);

    /// Closes both directions of `stream` before it is dropped.
    fn shutdown(&mut self, stream: &Self::Stream);

    /// A handle other threads use to interrupt `wait`.
    fn waker(&self) -> Self::Waker;

    /// Interrupts the current (or next) `wait` of the waker's transport.
    fn wake(waker: &Self::Waker);
}

/// Readiness interest / result for one registered fd.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or peer hung up / error — reading surfaces those).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Wakes a [`Selector`] blocked in `wait` from another thread
/// ([`Transport::wake`]). Cloneable and `Send`; each clone shares the same
/// pipe write end.
#[derive(Clone)]
pub struct Waker {
    pipe: std::sync::Arc<sys::OwnedFd>,
}

/// Reserved token reported when the wake pipe fires. Callers must not
/// register fds under this token.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// Reserved token of the listener: [`Transport::wait`] reports inbound
/// connections under it.
pub const LISTENER_TOKEN: u64 = u64::MAX - 1;

mod sys {
    use std::io;
    use std::os::raw::{c_int, c_void};

    // The minimal epoll + pipe surface, declared directly: the container
    // has no `libc` crate, and vendoring one for seven symbols would be
    // more surface than the symbols themselves.
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const O_NONBLOCK: c_int = 0o4000;
    const EINTR: i32 = 4;

    /// Kernel ABI layout for `struct epoll_event`. Packed on x86-64 (the
    /// kernel headers carry `__attribute__((packed))` there so the 32-bit
    /// and 64-bit layouts agree).
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// Closes the fd on drop.
    pub struct OwnedFd(pub c_int);

    impl Drop for OwnedFd {
        fn drop(&mut self) {
            unsafe {
                close(self.0);
            }
        }
    }

    pub fn create() -> io::Result<OwnedFd> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(OwnedFd(fd))
    }

    pub fn make_pipe() -> io::Result<(OwnedFd, OwnedFd)> {
        let mut fds = [0 as c_int; 2];
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | EPOLL_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((OwnedFd(fds[0]), OwnedFd(fds[1])))
    }

    pub fn ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn wait(epfd: c_int, buf: &mut Vec<EpollEvent>, timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.capacity() as c_int, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() == Some(EINTR) {
                return Ok(0);
            }
            return Err(err);
        }
        // SAFETY: the kernel initialized the first `n` entries.
        unsafe { buf.set_len(n as usize) };
        Ok(n as usize)
    }

    /// Drains the wake pipe's read end so level-triggered readiness clears.
    pub fn drain_pipe(fd: c_int) {
        let mut scratch = [0u8; 64];
        loop {
            let n = unsafe { read(fd, scratch.as_mut_ptr() as *mut c_void, scratch.len()) };
            if n <= 0 {
                break;
            }
        }
    }

    /// Best-effort single-byte write (wake signal). A full pipe already
    /// guarantees a pending wakeup, so errors are ignored.
    pub fn write_byte(fd: c_int) {
        let b = [1u8];
        unsafe {
            write(fd, b.as_ptr() as *const c_void, 1);
        }
    }
}

/// A readiness selector over non-blocking sockets: the epoll
/// [`Transport`].
pub struct Selector {
    ep: sys::OwnedFd,
    wake_rx: sys::OwnedFd,
    wake_tx: std::sync::Arc<sys::OwnedFd>,
    /// The listener, on the one selector that accepts.
    listener: Option<TcpListener>,
    buf: Vec<sys::EpollEvent>,
    events: Vec<Event>,
}

impl Selector {
    /// Creates a selector with its wake pipe already registered.
    pub fn new() -> io::Result<Self> {
        let ep = sys::create()?;
        let (wake_rx, wake_tx) = sys::make_pipe()?;
        sys::ctl(
            ep.0,
            sys::EPOLL_CTL_ADD,
            wake_rx.0,
            sys::EPOLLIN,
            WAKE_TOKEN,
        )?;
        Ok(Selector {
            ep,
            wake_rx,
            wake_tx: std::sync::Arc::new(wake_tx),
            listener: None,
            buf: Vec::with_capacity(256),
            events: Vec::with_capacity(256),
        })
    }

    /// Takes `listener` over: non-blocking, watched under
    /// [`LISTENER_TOKEN`], accepted from by [`Transport::accept`].
    pub fn listen(&mut self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.ctl(sys::EPOLL_CTL_ADD, &listener, LISTENER_TOKEN, false)?;
        self.listener = Some(listener);
        Ok(())
    }

    /// The listener's address, on the selector that holds one.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    fn ctl(&self, op: i32, fd: &impl AsRawFd, token: u64, want_write: bool) -> io::Result<()> {
        debug_assert_ne!(token, WAKE_TOKEN);
        let mut events = sys::EPOLLIN | sys::EPOLLRDHUP;
        if want_write {
            events |= sys::EPOLLOUT;
        }
        sys::ctl(self.ep.0, op, fd.as_raw_fd(), events, token)
    }
}

impl Transport for Selector {
    type Stream = TcpStream;
    type Waker = Waker;

    fn wait(&mut self, timeout_ms: i32) -> io::Result<&[Event]> {
        self.buf.clear();
        let n = sys::wait(self.ep.0, &mut self.buf, timeout_ms)?;
        self.events.clear();
        for ev in &self.buf[..n] {
            let bits = ev.events;
            let token = ev.data;
            if token == WAKE_TOKEN {
                sys::drain_pipe(self.wake_rx.0);
                continue;
            }
            self.events.push(Event {
                token,
                // Hangup/error surface as readable so the next read
                // observes EOF/ECONNRESET and the reactor reaps.
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                    != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(&self.events)
    }

    fn accept(&mut self) -> io::Result<TcpStream> {
        match &self.listener {
            Some(listener) => listener.accept().map(|(stream, _peer)| stream),
            None => Err(io::ErrorKind::WouldBlock.into()),
        }
    }

    fn register(&mut self, stream: &TcpStream, token: u64) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.ctl(sys::EPOLL_CTL_ADD, stream, token, false)
    }

    fn set_write_interest(
        &mut self,
        stream: &TcpStream,
        token: u64,
        want_write: bool,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, stream, token, want_write)
    }

    /// Best-effort: closing the socket removes it anyway.
    fn deregister(&mut self, stream: &TcpStream) {
        let _ = sys::ctl(self.ep.0, sys::EPOLL_CTL_DEL, stream.as_raw_fd(), 0, 0);
    }

    fn shutdown(&mut self, stream: &TcpStream) {
        let _ = stream.shutdown(Shutdown::Both);
    }

    fn waker(&self) -> Waker {
        Waker {
            pipe: self.wake_tx.clone(),
        }
    }

    fn wake(waker: &Waker) {
        sys::write_byte(waker.pipe.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn selector_reports_listener_and_socket_readiness() {
        let mut sel = Selector::new().expect("selector");
        sel.listen(TcpListener::bind("127.0.0.1:0").expect("bind"))
            .expect("listen");
        let addr = sel.local_addr().expect("addr");
        assert!(matches!(sel.accept(), Err(e) if e.kind() == io::ErrorKind::WouldBlock));

        let mut client = TcpStream::connect(addr).expect("connect");
        // The listener must become readable (an inbound connection).
        let mut saw_accept = false;
        for _ in 0..200 {
            let events = sel.wait(50).expect("wait");
            if events
                .iter()
                .any(|e| e.token == LISTENER_TOKEN && e.readable)
            {
                saw_accept = true;
                break;
            }
        }
        assert!(saw_accept, "listener never became readable");

        let server_side = sel.accept().expect("accept");
        sel.register(&server_side, 9).expect("register conn");
        client.write_all(b"ping").expect("write");
        let mut saw_data = false;
        for _ in 0..200 {
            let events = sel.wait(50).expect("wait");
            if events.iter().any(|e| e.token == 9 && e.readable) {
                saw_data = true;
                break;
            }
        }
        assert!(saw_data, "connection never became readable");
        sel.deregister(&server_side);
    }

    #[test]
    fn waker_interrupts_wait() {
        let mut sel = Selector::new().expect("selector");
        let waker = sel.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            Selector::wake(&waker);
        });
        // Without the wake this would block the full 5 s.
        let start = std::time::Instant::now();
        let _ = sel.wait(5_000).expect("wait");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(4),
            "wait was not interrupted"
        );
        handle.join().expect("join");
    }
}
