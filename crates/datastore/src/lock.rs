//! Strict two-phase locking with multi-granularity (table/row) locks,
//! blocking waits and waits-for-graph deadlock detection.
//!
//! The paper's persistent store is an ordinary pessimistic RDBMS (DB2); the
//! SLI runtime leans on that by bracketing every cache fill and every commit
//! in a *short* datastore transaction "committed immediately after the
//! access completes so that locks are released quickly". This module
//! provides those pessimistic semantics.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::DbError;
use crate::value::Value;
use crate::DbResult;

/// A lockable resource: a whole table or a single row. The table name is
/// shared with the statement's cached plan, so naming a resource copies no
/// text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Table-level lock (used for intent modes and full scans).
    Table(Arc<str>),
    /// Row-level lock, identified by table name and primary key.
    Row(Arc<str>, Value),
}

/// Multi-granularity lock modes.
///
/// `SharedIntentExclusive` (SIX) arises when a transaction scans a table
/// (S) and then updates some of its rows (IX) — e.g. Trade2's *sell*, which
/// runs the portfolio finder and then deletes one holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intent to take shared row locks (IS).
    IntentShared,
    /// Intent to take exclusive row locks (IX).
    IntentExclusive,
    /// Shared (S): whole-resource read.
    Shared,
    /// S + IX combined (SIX).
    SharedIntentExclusive,
    /// Exclusive (X): whole-resource write.
    Exclusive,
}

impl LockMode {
    /// The classic multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IntentShared, Exclusive) | (Exclusive, IntentShared) => false,
            (IntentShared, _) | (_, IntentShared) => true,
            (IntentExclusive, IntentExclusive) => true,
            (IntentExclusive, _) | (_, IntentExclusive) => false,
            (Shared, Shared) => true,
            (Shared, _) | (_, Shared) => false,
            _ => false, // SIX-SIX, SIX-X, X-anything
        }
    }

    /// Least upper bound of two modes held by the *same* transaction
    /// (lock upgrade).
    pub fn combine(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self, other) {
            (Exclusive, _) | (_, Exclusive) => Exclusive,
            (SharedIntentExclusive, _) | (_, SharedIntentExclusive) => SharedIntentExclusive,
            (Shared, IntentExclusive) | (IntentExclusive, Shared) => SharedIntentExclusive,
            (Shared, IntentShared) | (IntentShared, Shared) => Shared,
            (IntentExclusive, IntentShared) | (IntentShared, IntentExclusive) => IntentExclusive,
            _ => unreachable!("all distinct pairs covered"),
        }
    }
}

/// Transaction identifier handed out by the engine.
pub type TxnId = u64;

#[derive(Debug, Default)]
struct LmState {
    /// Current holders per resource (one combined mode per transaction).
    locks: HashMap<Resource, HashMap<TxnId, LockMode>>,
    /// waits-for edges: blocked txn → the holders it waits on.
    waits_for: HashMap<TxnId, HashSet<TxnId>>,
}

impl LmState {
    /// Depth-first search for a cycle through `start` in the waits-for
    /// graph.
    fn has_cycle_from(&self, start: TxnId) -> bool {
        let mut stack: Vec<TxnId> = self
            .waits_for
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = self.waits_for.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }
}

/// The lock manager: blocking acquisition with deadlock detection.
#[derive(Debug)]
pub struct LockManager {
    state: Mutex<LmState>,
    released: Condvar,
    wait_budget: Duration,
}

impl Default for LockManager {
    fn default() -> LockManager {
        LockManager::new(Duration::from_secs(2))
    }
}

impl LockManager {
    /// Creates a lock manager whose blocking waits give up (with
    /// [`DbError::LockTimeout`]) after `wait_budget`.
    pub fn new(wait_budget: Duration) -> LockManager {
        LockManager {
            state: Mutex::new(LmState::default()),
            released: Condvar::new(),
            wait_budget,
        }
    }

    /// Acquires (or upgrades to) `mode` on `resource` for `txn`, blocking
    /// while incompatible locks are held by other transactions. The lock
    /// table keeps `resource` only if it holds no entry for it yet.
    ///
    /// # Errors
    /// * [`DbError::Deadlock`] if granting would close a waits-for cycle —
    ///   the requester is chosen as the victim;
    /// * [`DbError::LockTimeout`] if the wait budget is exhausted (the
    ///   safety net for a single-threaded caller that would block forever).
    pub fn acquire(&self, txn: TxnId, resource: Resource, mode: LockMode) -> DbResult<()> {
        let mut st = self.state.lock();
        loop {
            let holders = st.locks.get(&resource);
            let requested = holders
                .and_then(|h| h.get(&txn))
                .map(|held| held.combine(mode))
                .unwrap_or(mode);
            let blockers: HashSet<TxnId> = holders
                .into_iter()
                .flatten()
                .filter(|(id, held)| **id != txn && !requested.compatible(**held))
                .map(|(id, _)| *id)
                .collect();
            if blockers.is_empty() {
                match st.locks.get_mut(&resource) {
                    Some(holders) => {
                        holders.insert(txn, requested);
                    }
                    None => {
                        st.locks.insert(resource, HashMap::from([(txn, requested)]));
                    }
                }
                st.waits_for.remove(&txn);
                return Ok(());
            }
            st.waits_for.insert(txn, blockers);
            if st.has_cycle_from(txn) {
                st.waits_for.remove(&txn);
                return Err(DbError::Deadlock);
            }
            let timed_out = self
                .released
                .wait_for(&mut st, self.wait_budget)
                .timed_out();
            if timed_out {
                st.waits_for.remove(&txn);
                return Err(DbError::LockTimeout);
            }
        }
    }

    /// Releases every lock held by `txn` (strict 2PL: locks are held to
    /// transaction end and dropped all at once).
    pub fn release_all(&self, txn: TxnId) {
        let mut st = self.state.lock();
        st.locks.retain(|_, holders| {
            holders.remove(&txn);
            !holders.is_empty()
        });
        st.waits_for.remove(&txn);
        self.released.notify_all();
    }

    /// The mode `txn` currently holds on `resource`, if any.
    pub fn held(&self, txn: TxnId, resource: &Resource) -> Option<LockMode> {
        self.state
            .lock()
            .locks
            .get(resource)
            .and_then(|h| h.get(&txn))
            .copied()
    }

    /// Wipes the entire lock table — the lock manager is volatile state,
    /// so a crash forgets every holder and waiter at once. Blocked
    /// acquirers are woken and re-evaluate against the empty table.
    pub(crate) fn clear(&self) {
        let mut st = self.state.lock();
        st.locks.clear();
        st.waits_for.clear();
        self.released.notify_all();
    }

    /// Runs `f` if no transaction holds any lock, and keeps every lock
    /// request waiting until `f` returns; `None` if a lock is held. A
    /// write needs a lock before it touches a table, so `f` sees only
    /// committed state. `f` must not call back into the lock manager.
    pub(crate) fn while_idle<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let st = self.state.lock();
        st.locks.values().all(HashMap::is_empty).then(f)
    }

    /// Total number of (resource, holder) pairs — used by tests to check
    /// nothing leaks.
    pub fn lock_count(&self) -> usize {
        self.state.lock().locks.values().map(|h| h.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn row(pk: i64) -> Resource {
        Resource::Row("t".into(), Value::from(pk))
    }

    fn table() -> Resource {
        Resource::Table("t".into())
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        let modes = [
            IntentShared,
            IntentExclusive,
            Shared,
            SharedIntentExclusive,
            Exclusive,
        ];
        let expected = [
            // IS     IX     S      SIX    X
            [true, true, true, true, false],     // IS
            [true, true, false, false, false],   // IX
            [true, false, true, false, false],   // S
            [true, false, false, false, false],  // SIX
            [false, false, false, false, false], // X
        ];
        for (i, a) in modes.iter().enumerate() {
            for (j, b) in modes.iter().enumerate() {
                assert_eq!(a.compatible(*b), expected[i][j], "compat({a:?},{b:?})");
                // symmetry
                assert_eq!(a.compatible(*b), b.compatible(*a));
            }
        }
    }

    #[test]
    fn combine_is_lub() {
        use LockMode::*;
        assert_eq!(Shared.combine(IntentExclusive), SharedIntentExclusive);
        assert_eq!(IntentShared.combine(IntentExclusive), IntentExclusive);
        assert_eq!(IntentShared.combine(Shared), Shared);
        assert_eq!(Shared.combine(Exclusive), Exclusive);
        assert_eq!(Shared.combine(Shared), Shared);
        assert_eq!(
            SharedIntentExclusive.combine(IntentShared),
            SharedIntentExclusive
        );
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.acquire(1, row(1), LockMode::Shared).unwrap();
        lm.acquire(2, row(1), LockMode::Shared).unwrap();
        assert_eq!(lm.lock_count(), 2);
        lm.release_all(1);
        lm.release_all(2);
        assert_eq!(lm.lock_count(), 0);
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let handle = std::thread::spawn(move || lm2.acquire(2, row(1), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        assert!(!handle.is_finished(), "waiter should be blocked");
        lm.release_all(1);
        handle.join().unwrap().unwrap();
        assert_eq!(lm.held(2, &row(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_from_shared_to_exclusive() {
        let lm = LockManager::default();
        lm.acquire(1, row(1), LockMode::Shared).unwrap();
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        assert_eq!(lm.held(1, &row(1)), Some(LockMode::Exclusive));
    }

    #[test]
    fn single_thread_conflict_times_out() {
        let lm = LockManager::new(Duration::from_millis(30));
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire(2, row(1), LockMode::Shared).unwrap_err(),
            DbError::LockTimeout
        );
    }

    #[test]
    fn deadlock_is_detected() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        lm.acquire(2, row(2), LockMode::Exclusive).unwrap();
        // txn 2 waits on row 1 (held by 1)
        let lm2 = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || lm2.acquire(2, row(1), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        // txn 1 now requests row 2 → cycle → txn 1 is the victim
        let err = lm.acquire(1, row(2), LockMode::Exclusive).unwrap_err();
        assert_eq!(err, DbError::Deadlock);
        lm.release_all(1);
        waiter.join().unwrap().unwrap();
        lm.release_all(2);
        assert_eq!(lm.lock_count(), 0);
    }

    #[test]
    fn intent_locks_allow_concurrent_row_writers() {
        let lm = LockManager::default();
        lm.acquire(1, table(), LockMode::IntentExclusive).unwrap();
        lm.acquire(2, table(), LockMode::IntentExclusive).unwrap();
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        lm.acquire(2, row(2), LockMode::Exclusive).unwrap();
        lm.release_all(1);
        lm.release_all(2);
    }

    #[test]
    fn table_scan_blocks_row_writer_via_intents() {
        let lm = LockManager::new(Duration::from_millis(30));
        lm.acquire(1, table(), LockMode::Shared).unwrap();
        // a writer must take IX on the table first, which conflicts with S
        assert_eq!(
            lm.acquire(2, table(), LockMode::IntentExclusive)
                .unwrap_err(),
            DbError::LockTimeout
        );
    }

    #[test]
    fn six_upgrade_path() {
        let lm = LockManager::default();
        lm.acquire(1, table(), LockMode::Shared).unwrap();
        lm.acquire(1, table(), LockMode::IntentExclusive).unwrap();
        assert_eq!(lm.held(1, &table()), Some(LockMode::SharedIntentExclusive));
    }

    #[test]
    fn release_wakes_multiple_readers() {
        let lm = Arc::new(LockManager::default());
        lm.acquire(1, row(1), LockMode::Exclusive).unwrap();
        let mut handles = Vec::new();
        for id in 2..5 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                lm.acquire(id, row(1), LockMode::Shared)
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        lm.release_all(1);
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_eq!(lm.lock_count(), 3);
    }
}
