//! The pending-pushback registry: which connection is owed a parked
//! task's eventual resolution, keyed by **server-minted** task ids.
//!
//! Task ids are client-chosen, and two independent clients are perfectly
//! entitled to both call their first task `1`. The pre-namespacing edge
//! keyed its pending map by the bare client id, so such submissions
//! aliased: the second insert overwrote the first, and one client received
//! the other's pushed `DecisionUpdate`. The fix mints a server-side id at
//! ingress — the connection id in the high 32 bits, the client's id in the
//! low 32 — uses *that* id everywhere inside the gateway and journal, and
//! rewrites it back to the client's own id on every frame leaving the
//! edge. Clients never see minted ids; the wire format is unchanged.
//!
//! The 32-bit split also bounds the wire contract: a client task id must
//! fit in `u32` (enforced at ingress with a protocol error), and an edge
//! hands out no connection id past `u32::MAX` (the reactor refuses those
//! connections at accept) — a restarted edge continues from
//! `EdgeConfig::first_conn_id` to keep generations disjoint, because a
//! recovered journal still holds pre-crash minted ids.

use std::collections::HashSet;

/// The minted ids of the parked tasks whose resolutions are still owed:
/// each id names its connection and the client's own task id
/// ([`unmint`](PendingRegistry::unmint)).
#[derive(Default)]
pub(crate) struct PendingRegistry {
    minted: HashSet<u64>,
}

impl PendingRegistry {
    /// The server-side task id for `client_task` submitted on `conn`:
    /// distinct connections can never mint the same id.
    pub(crate) fn mint(conn: u64, client_task: u64) -> u64 {
        debug_assert!(conn <= u32::MAX as u64, "refused at accept");
        debug_assert!(client_task <= u32::MAX as u64, "checked at ingress");
        (conn << 32) | client_task
    }

    /// The connection and the client's task id a minted id was made from.
    pub(crate) fn unmint(minted: u64) -> (u64, u64) {
        (minted >> 32, minted & u64::from(u32::MAX))
    }

    pub(crate) fn insert(&mut self, minted: u64) {
        self.minted.insert(minted);
    }

    pub(crate) fn contains(&self, minted: u64) -> bool {
        self.minted.contains(&minted)
    }

    pub(crate) fn remove(&mut self, minted: u64) {
        self.minted.remove(&minted);
    }

    /// Whether any parked task of connection `conn` is still owed.
    pub(crate) fn holds(&self, conn: u64) -> bool {
        self.minted
            .iter()
            .any(|&minted| Self::unmint(minted).0 == conn)
    }

    pub(crate) fn len(&self) -> usize {
        self.minted.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.minted.is_empty()
    }

    /// Drops ids whose connection is no longer live; returns how many (the
    /// `pending_evicted` stat).
    pub(crate) fn purge_closed(&mut self, live: &HashSet<u64>) -> u64 {
        let before = self.minted.len();
        self.minted
            .retain(|&minted| live.contains(&Self::unmint(minted).0));
        (before - self.minted.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_client_ids_on_distinct_connections_never_alias() {
        for conn_a in [0u64, 1, 7, u32::MAX as u64] {
            for conn_b in [0u64, 1, 7, u32::MAX as u64] {
                for task in [0u64, 1, 2, u32::MAX as u64] {
                    let a = PendingRegistry::mint(conn_a, task);
                    let b = PendingRegistry::mint(conn_b, task);
                    assert_eq!(a == b, conn_a == conn_b);
                    assert_eq!(PendingRegistry::unmint(a), (conn_a, task));
                }
            }
        }
    }

    #[test]
    fn minted_ids_recover_the_client_id_on_connection_zero() {
        // The first connection's minted ids equal the client's own —
        // single-client traces read naturally.
        assert_eq!(PendingRegistry::mint(0, 42), 42);
        assert_eq!(PendingRegistry::mint(1, 42), (1 << 32) | 42);
    }

    #[test]
    fn purge_drops_only_closed_connections() {
        let mut reg = PendingRegistry::default();
        reg.insert(PendingRegistry::mint(0, 1));
        reg.insert(PendingRegistry::mint(3, 1));
        let live: HashSet<u64> = [3u64].into_iter().collect();
        assert_eq!(reg.purge_closed(&live), 1);
        assert_eq!(reg.len(), 1);
        assert!(reg.contains(PendingRegistry::mint(3, 1)));
        assert!(!reg.is_empty());
    }
}
