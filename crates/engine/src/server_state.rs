//! Multi-session server state: the session registry behind the `session`
//! protocol verbs, and the rate limiter of the slow-query log.
//!
//! # Registry
//!
//! A [`SessionRegistry`] holds numbered slots, each an `Option<Session>`
//! (a slot is empty until its first `universe` request).
//! Exactly one slot is *current*; the classic single-session verbs operate
//! on it.  The registry maintains the invariant that a current slot always
//! exists — closing the last slot immediately opens a fresh empty one — so
//! a server never has to special-case "no slot".
//!
//! # Request order
//!
//! [`crate::protocol::Server::respond`] answers every request at its
//! position in the request stream, on the thread that parsed it: a query
//! reads the current slot's session, and a write edits that session in
//! place before the next request is parsed.  The reply stream is therefore the
//! serial one by construction, whatever the framing, and replies leave in
//! request order.

use crate::session::Session;
use std::collections::BTreeMap;
use std::time::Instant;

/// Numbered session slots with one current slot.
#[derive(Debug)]
pub struct SessionRegistry {
    slots: BTreeMap<u64, Option<Session>>,
    current: u64,
    next_id: u64,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// A registry with one empty slot (id 0), current.
    pub fn new() -> Self {
        let mut slots = BTreeMap::new();
        slots.insert(0, None);
        SessionRegistry {
            slots,
            current: 0,
            next_id: 1,
        }
    }

    /// The id of the current slot.
    pub fn current_id(&self) -> u64 {
        self.current
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// A registry always holds at least one slot.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current slot's session, if a `universe` request has opened one.
    pub fn session(&self) -> Option<&Session> {
        self.slots.get(&self.current)?.as_ref()
    }

    /// Mutable access to the current slot's session.
    pub fn session_mut(&mut self) -> Option<&mut Session> {
        self.slots.get_mut(&self.current)?.as_mut()
    }

    /// Installs (or replaces) the current slot's session.
    pub fn install(&mut self, session: Session) {
        self.slots.insert(self.current, Some(session));
    }

    /// Opens a fresh empty slot and makes it current; returns its id.
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.insert(id, None);
        self.current = id;
        id
    }

    /// Switches the current slot.  Returns `false` when the id is unknown.
    pub fn switch(&mut self, id: u64) -> bool {
        if self.slots.contains_key(&id) {
            self.current = id;
            true
        } else {
            false
        }
    }

    /// Closes a slot, dropping its session.  Returns `false` when the id is
    /// unknown.  If the current slot is closed, the lowest remaining id
    /// becomes current; closing the last slot opens a fresh empty one (ids
    /// are never reused).
    pub fn close(&mut self, id: u64) -> bool {
        if self.slots.remove(&id).is_none() {
            return false;
        }
        if self.slots.is_empty() {
            let fresh = self.next_id;
            self.next_id += 1;
            self.slots.insert(fresh, None);
        }
        if !self.slots.contains_key(&self.current) {
            self.current = *self
                .slots
                .keys()
                .next()
                .expect("registry is never left empty");
        }
        true
    }

    /// The slots in id order, with each slot's session if open.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Option<&Session>)> {
        self.slots
            .iter()
            .map(|(&id, session)| (id, session.as_ref()))
    }
}

/// Token-bucket rate limiter for the slow-query stderr log.  Slow queries
/// cluster exactly when the server is overloaded, and an unbounded stderr
/// stream (a synchronous write per line) amplifies the overload it reports;
/// the bucket caps the log at a short burst plus a steady trickle, and every
/// suppressed line is counted in [`EngineMetrics::slow_log_dropped`] so the
/// `stats` verb can surface how much was withheld.
#[derive(Debug)]
pub(crate) struct SlowLogLimiter {
    tokens: f64,
    last: Instant,
}

impl SlowLogLimiter {
    /// Lines the bucket releases back-to-back from full.
    const BURST: f64 = 8.0;
    /// Sustained lines per second once the burst is spent.
    const PER_SEC: f64 = 8.0;

    pub(crate) fn new() -> SlowLogLimiter {
        SlowLogLimiter {
            tokens: SlowLogLimiter::BURST,
            last: Instant::now(),
        }
    }

    pub(crate) fn allow(&mut self) -> bool {
        self.allow_at(Instant::now())
    }

    fn allow_at(&mut self, now: Instant) -> bool {
        let refill =
            now.saturating_duration_since(self.last).as_secs_f64() * SlowLogLimiter::PER_SEC;
        self.tokens = (self.tokens + refill).min(SlowLogLimiter::BURST);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Server;
    use crate::session::SessionConfig;
    use std::time::Duration;

    #[test]
    fn registry_opens_switches_and_closes() {
        let mut r = SessionRegistry::new();
        assert_eq!(r.current_id(), 0);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert!(r.session().is_none(), "slots start without a session");
        let a = r.open();
        let b = r.open();
        assert_eq!((a, b), (1, 2));
        assert_eq!(r.current_id(), 2);
        assert!(r.switch(0));
        assert!(!r.switch(99));
        assert_eq!(r.current_id(), 0);
        // Closing the current slot falls back to the lowest remaining id.
        assert!(r.close(0));
        assert_eq!(r.current_id(), 1);
        assert!(!r.close(0), "double close reports absence");
        // Closing a non-current slot leaves current alone.
        assert!(r.close(2));
        assert_eq!(r.current_id(), 1);
        // Closing the last slot opens a fresh one; ids are never reused.
        assert!(r.close(1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.current_id(), 3);
    }

    #[test]
    fn slow_query_threshold_counts_slow_queries() {
        let before = crate::metrics::EngineMetrics::global().slow_queries.get();
        let mut server = Server::new(SessionConfig::default());
        server.set_slow_query_us(Some(0));
        server.handle_line("universe 4");
        assert!(server.handle_line("implies A->{B}").text.starts_with("no"));
        let after = crate::metrics::EngineMetrics::global().slow_queries.get();
        assert!(
            after > before,
            "a zero-microsecond threshold marks every query slow"
        );
    }

    #[test]
    fn registry_iterates_in_id_order() {
        let mut r = SessionRegistry::new();
        r.open();
        r.open();
        r.close(1);
        let ids: Vec<u64> = r.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn slow_log_limiter_bursts_throttles_and_refills() {
        let mut limiter = SlowLogLimiter::new();
        let t0 = Instant::now();
        let count_at = |limiter: &mut SlowLogLimiter, at: Instant| {
            (0..100).filter(|_| limiter.allow_at(at)).count() as f64
        };
        // From full, exactly the burst passes; the rest are refused.
        assert_eq!(count_at(&mut limiter, t0), SlowLogLimiter::BURST);
        // One quiet second buys the steady rate back.
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(count_at(&mut limiter, t1), SlowLogLimiter::PER_SEC);
        // A long idle stretch refills to the burst cap, never beyond.
        let t2 = t1 + Duration::from_secs(3600);
        assert_eq!(count_at(&mut limiter, t2), SlowLogLimiter::BURST);
        // Clock going backwards (monotone in practice, but saturate anyway)
        // must not mint tokens.
        assert_eq!(count_at(&mut limiter, t0), 0.0);
    }
}
