//! Offline workspace shim for the `parking_lot` crate.
//!
//! The container this workspace builds in has no crates.io access, so the
//! workspace pins `parking_lot` to this local path crate (DESIGN.md §5).
//! It re-implements exactly the subset the workspace uses — `Mutex` and
//! `RwLock` with *non-poisoning* semantics and guard types that `Deref` to
//! the protected data — by delegating to `std::sync` and recovering from
//! poisoning via `PoisonError::into_inner`.
//!
//! Non-poisoning recovery matters here: the fault-injection layer
//! (`micrograph-core::fault`) deliberately panics inside engine calls and
//! the serving stack must keep answering afterwards, exactly as it would
//! with the real parking_lot.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};

/// A mutual-exclusion lock that never poisons: a panic while holding the
/// guard leaves the data accessible to subsequent lockers.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the protected data.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is acquired; never returns a poison error.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A reader-writer lock that never poisons, mirroring parking_lot semantics.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new unlocked lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the protected data.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access; never returns a poison error.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquires exclusive write access; never returns a poison error.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }

    /// Exclusive write access if no other guard is held, without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(TryLockError::Poisoned(p)) => Some(RwLockWriteGuard(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// RAII exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<'a, T: ?Sized> RwLockWriteGuard<'a, T> {
    /// Turns the exclusive guard into a shared one without unlocking, so
    /// no other writer can get in between.
    pub fn downgrade(s: Self) -> RwLockReadGuard<'a, T> {
        RwLockReadGuard(std::sync::RwLockWriteGuard::downgrade(s.0))
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_survives_panic_while_held() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn rwlock_survives_panic_while_held() {
        let l = std::sync::Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(*l.read(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn try_write_fails_while_held_and_downgrade_keeps_writers_out() {
        let l = RwLock::new(5u32);
        let r = l.read();
        assert!(l.try_write().is_none());
        drop(r);
        let mut w = l.try_write().expect("no guard held");
        *w = 6;
        let r = RwLockWriteGuard::downgrade(w);
        assert!(l.try_write().is_none());
        assert_eq!((*r, *l.read()), (6, 6));
    }
}
