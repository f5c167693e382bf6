//! Sharing one handler's state across several jump-table entries.
//!
//! The jump table maps each 6-bit handler ID to its own handler object;
//! when two message flows (e.g. a data stream and its end-of-stream
//! marker, or HashJoin's build and probe phases) must update the same
//! state, register [`Shared`] clones of one inner handler under both
//! IDs.
#![expect(
    clippy::disallowed_types,
    reason = "the IDs sharing one handler live in one switch's jump table, never in two engines"
)]

use std::cell::RefCell;
use std::rc::Rc;

use asan_core::handler::{Handler, HandlerCtx, MsgInfo};

/// A cloneable wrapper registering one handler under several IDs.
pub struct Shared<H>(Rc<RefCell<H>>);

impl<H> Shared<H> {
    /// Wraps `inner` for shared registration.
    pub fn new(inner: H) -> Self {
        Shared(Rc::new(RefCell::new(inner)))
    }

    /// Borrows the inner handler (e.g. to read results after a run).
    pub fn inner(&self) -> std::cell::Ref<'_, H> {
        self.0.borrow()
    }
}

impl<H> Clone for Shared<H> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<H: Handler + 'static> Handler for Shared<H> {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        self.0.borrow_mut().on_message(ctx);
    }

    fn cpu_affinity(&self, msg: &MsgInfo) -> Option<usize> {
        self.0.borrow().cpu_affinity(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Tally(u64);
    impl Handler for Tally {
        fn on_message(&mut self, _ctx: &mut HandlerCtx<'_>) {
            self.0 += 1;
        }
    }

    #[test]
    fn clones_share_state() {
        let a = Shared::new(Tally(0));
        let b = a.clone();
        a.0.borrow_mut().0 += 5;
        assert_eq!(b.inner().0, 5);
    }
}
