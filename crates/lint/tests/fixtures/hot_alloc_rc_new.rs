// Fixture: hot-alloc — `Rc::new` on a per-message path; the waived miss
// path of a free list is the one allowed form.
// Linted as crates/rdma/src/ha_rc.rs.

impl CellPool {
    fn take(self: &Rc<CellPool>) -> Wc {
        let Some(cell) = self.free.borrow_mut().pop() else {
            // lint: allow-hot-alloc(a miss creates one cell)
            return Wc(Rc::new(WorkCompletion::default()));
        };
        Wc(cell)
    }
}

impl<'a, P> Scatter<'a, P>
where
    P: FnMut(&Exchange, Vec<u8>) -> Posted,
{
    fn post(&mut self, i: usize) -> Posted {
        let shared = Rc::new(self.lanes[i].take());
        (self.step)(self.ex, shared)
    }
}
