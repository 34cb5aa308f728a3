//! Thread-local registry scopes: deterministic observability for work that
//! runs concurrently.
//!
//! Most instruments are commutative — counter increments, `set_min`
//! gauges, histogram samples, span stats and trace events end in the same
//! state whatever order concurrent writers interleave in — so they always
//! go straight to the [`global()`](crate::global) registry. Two kinds of
//! write are order-sensitive: [`Series`] pushes/sets (per-epoch losses,
//! best-so-far curves) and progress [`event`](crate::event)s. While a
//! [`Scope`] is entered on a thread, the free functions
//! [`series`](crate::series) and [`event`](crate::event) buffer into it
//! instead; [`Scope::commit`] later replays the buffer into the enclosing
//! scope (or the global registry). Committing the scopes of independent
//! work items in a fixed order therefore leaves exactly the state a serial
//! run in that order leaves, however the items actually interleaved.
//!
//! The merge rule per series: a buffer that was only pushed to *appends*
//! its values; a buffer that was [`Series::set`] (possibly followed by
//! pushes) *replaces* the target — the same result the writes would have
//! had on the target directly. Explicit [`Registry`](crate::Registry)
//! handles are never redirected; only the free functions resolve against
//! the current scope. `vaesa-par` workers enter their caller's scope, so
//! nested parallel sections stay attributed to the right work item.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use crate::Series;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

/// A buffer for the order-sensitive observability writes of one unit of
/// work. While it is entered on a thread, the free functions
/// [`series`](crate::series) and [`event`](crate::event) buffer into it;
/// [`Scope::commit`] replays the buffer into the enclosing scope (or the
/// global registry).
#[derive(Debug, Default)]
pub struct Scope {
    series: Mutex<BTreeMap<String, Arc<Series>>>,
    events: Mutex<Vec<String>>,
}

/// Keeps a [`Scope`] entered on the current thread; dropping it restores
/// whatever scope (or none) was current before.
#[derive(Debug)]
#[must_use = "the scope is left as soon as the guard drops"]
pub struct ScopeGuard {
    previous: Option<Arc<Scope>>,
    /// The guard restores *this* thread's state, so it must stay here.
    _not_send: PhantomData<*const ()>,
}

impl Scope {
    /// A fresh, empty scope.
    pub fn new() -> Arc<Scope> {
        Arc::new(Scope::default())
    }

    /// The scope entered on the current thread, if any.
    pub fn current() -> Option<Arc<Scope>> {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Makes this the current thread's scope until the guard drops.
    pub fn enter(self: &Arc<Self>) -> ScopeGuard {
        let previous = CURRENT.with(|c| c.replace(Some(Arc::clone(self))));
        ScopeGuard {
            previous,
            _not_send: PhantomData,
        }
    }

    /// The buffered series named `name`, created on first use.
    pub fn series(&self, name: &str) -> Arc<Series> {
        let mut map = self.series.lock().expect("scope lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Buffers one progress event.
    pub(crate) fn event(&self, message: &str) {
        self.events
            .lock()
            .expect("scope lock")
            .push(message.to_string());
    }

    /// Replays the buffered writes into the current thread's scope, or the
    /// global registry when none is entered, and empties the buffer.
    pub fn commit(&self) {
        let series = std::mem::take(&mut *self.series.lock().expect("scope lock"));
        for (name, buffered) in series {
            let (values, replaced) = buffered.take();
            let target = crate::series(&name);
            if replaced {
                target.set(values);
            } else {
                target.extend(values);
            }
        }
        let events = std::mem::take(&mut *self.events.lock().expect("scope lock"));
        for message in events {
            crate::event(&message);
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global;

    /// Commits `scopes` in order, the way the flow runner does after a
    /// wave, into a fresh enclosing scope, and returns that scope.
    fn committed(scopes: &[Arc<Scope>]) -> Arc<Scope> {
        let outer = Scope::new();
        let _in = outer.enter();
        for s in scopes {
            s.commit();
        }
        outer
    }

    #[test]
    fn pushes_append_in_commit_order() {
        let (a, b) = (Scope::new(), Scope::new());
        // `b` writes first, but `a` commits first.
        {
            let _in = b.enter();
            crate::series("curve").push(3.0);
        }
        {
            let _in = a.enter();
            crate::series("curve").push(1.0);
            crate::series("curve").push(2.0);
        }
        let outer = committed(&[a, b]);
        assert_eq!(outer.series("curve").values(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_replaces_what_earlier_scopes_pushed() {
        let (a, b, c) = (Scope::new(), Scope::new(), Scope::new());
        for (scope, write) in [(&a, 0), (&b, 1), (&c, 2)] {
            let _in = scope.enter();
            let s = crate::series("best");
            match write {
                0 => s.push(9.0),
                // A set followed by a push still replaces as a whole.
                1 => {
                    s.set(vec![5.0]);
                    s.push(4.0);
                }
                _ => s.push(3.0),
            }
        }
        let outer = committed(&[a, b, c]);
        assert_eq!(outer.series("best").values(), vec![5.0, 4.0, 3.0]);
    }

    #[test]
    fn a_series_only_looked_up_still_appears_empty() {
        let a = Scope::new();
        {
            let _in = a.enter();
            let _ = crate::series("touched");
        }
        let outer = committed(&[a]);
        assert!(outer.series.lock().unwrap().contains_key("touched"));
        assert!(outer.series("touched").is_empty());
    }

    #[test]
    fn set_min_gauges_bypass_scopes_and_keep_the_minimum() {
        let name = "obs.test.scope.best";
        let handles: Vec<_> = [7.0, 2.0, 5.0]
            .into_iter()
            .map(|v| {
                std::thread::spawn(move || {
                    let scope = Scope::new();
                    let _in = scope.enter();
                    crate::gauge(name).set_min(v);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(global().gauge(name).get(), 2.0);
    }

    #[test]
    fn events_buffer_and_commit_in_order() {
        let (a, b) = (Scope::new(), Scope::new());
        {
            let _in = b.enter();
            crate::event("second");
        }
        {
            let _in = a.enter();
            crate::event("first");
        }
        let outer = committed(&[a, b]);
        assert_eq!(*outer.events.lock().unwrap(), vec!["first", "second"]);
    }

    #[test]
    fn guards_nest_and_restore_the_previous_scope() {
        assert!(Scope::current().is_none());
        let (a, b) = (Scope::new(), Scope::new());
        {
            let _ga = a.enter();
            {
                let _gb = b.enter();
                assert!(Arc::ptr_eq(&Scope::current().unwrap(), &b));
            }
            assert!(Arc::ptr_eq(&Scope::current().unwrap(), &a));
        }
        assert!(Scope::current().is_none());
    }

    #[test]
    fn commit_without_a_scope_reaches_the_global_registry() {
        let a = Scope::new();
        {
            let _in = a.enter();
            crate::series("obs.test.scope.global").push(1.5);
        }
        assert!(global().series("obs.test.scope.global").is_empty());
        a.commit();
        assert_eq!(global().series("obs.test.scope.global").values(), vec![1.5]);
    }
}
