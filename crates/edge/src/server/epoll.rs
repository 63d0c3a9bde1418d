//! What only the epoll transport builds: an [`EdgeServer`] or an
//! [`EdgeCluster`] bound to a TCP address, and the address it got.
//! Everything else in the server is generic over [`Transport`].
//!
//! [`Transport`]: crate::poll::Transport

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};

use crate::poll::Selector;

use super::{EdgeCluster, EdgeConfig, EdgeGateway, EdgeServer};

impl<G: EdgeGateway> EdgeServer<G, Selector> {
    /// Binds the listener, creates the epoll set with the listener in it,
    /// and takes ownership of the gateway (enabling its decision-update
    /// stream). `addr` may be `"127.0.0.1:0"` for an ephemeral port — see
    /// [`EdgeServer::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, gateway: G, cfg: EdgeConfig) -> io::Result<Self> {
        let mut lone = Self::group(addr, vec![gateway], cfg)?;
        Ok(lone.pop().expect("a group of one"))
    }

    /// `gateways.len()` reactors behind one listener at `addr`, in reactor
    /// order; reactor 0's selector holds the listener. Every failure —
    /// bind, `epoll_create1`, the wake pipe, registering the listener — is
    /// the caller's `io::Error`.
    pub(crate) fn group(
        addr: impl ToSocketAddrs,
        gateways: Vec<G>,
        cfg: EdgeConfig,
    ) -> io::Result<Vec<Self>> {
        assert!(!gateways.is_empty(), "a cluster needs at least one reactor");
        let listener = TcpListener::bind(addr)?;
        let mut selectors = (0..gateways.len())
            .map(|_| Selector::new())
            .collect::<io::Result<Vec<_>>>()?;
        selectors[0].listen(listener)?;
        Ok(Self::with_transports(selectors, gateways, cfg))
    }

    /// The bound address (the OS-chosen port for `:0` binds). Panics on a
    /// cluster reactor without the listener — ask the cluster instead.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport
            .local_addr()
            .expect("this reactor holds no listener")
    }
}

impl<G: EdgeGateway + Send> EdgeCluster<G, Selector> {
    /// Binds the shared listener and builds every reactor. `gateways` must
    /// be non-empty; its length fixes the reactor count.
    pub fn bind(addr: impl ToSocketAddrs, gateways: Vec<G>, cfg: EdgeConfig) -> io::Result<Self> {
        let reactors = EdgeServer::group(addr, gateways, cfg)?;
        Ok(EdgeCluster { reactors })
    }

    /// The bound address (the OS-chosen port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.reactors[0].local_addr()
    }
}
