//! An intrusive LRU list over slot indices, and the slot numbering it
//! orders.
//!
//! Shared by the dynamic variants of the point and node caches. Implemented
//! as a doubly-linked list threaded through a `Vec` (no per-node allocation,
//! no unsafe): `touch` moves a slot to the front, `pop_back` yields the
//! least-recently-used slot for eviction. [`SlotKeys`] gives each cached key
//! its slot and names the key a popped slot belonged to.

const NIL: u32 = u32::MAX;

/// Doubly-linked LRU order over `usize` slots.
#[derive(Debug, Clone)]
pub struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    pub fn new() -> Self {
        Self {
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of linked slots.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.prev.len() {
            self.prev.resize(slot + 1, NIL);
            self.next.resize(slot + 1, NIL);
        }
    }

    /// Link a new slot at the front (most recently used).
    ///
    /// # Panics
    /// Debug-asserts the slot is not currently linked.
    pub fn push_front(&mut self, slot: usize) {
        self.ensure_slot(slot);
        let s = slot as u32;
        debug_assert!(self.prev[slot] == NIL && self.next[slot] == NIL && self.head != s);
        self.next[slot] = self.head;
        self.prev[slot] = NIL;
        if self.head != NIL {
            self.prev[self.head as usize] = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
        self.len += 1;
    }

    /// Unlink a slot (no-op ordering fix-ups if it was head/tail).
    pub fn remove(&mut self, slot: usize) {
        let s = slot as u32;
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            debug_assert_eq!(self.head, s);
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            debug_assert_eq!(self.tail, s);
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.len -= 1;
    }

    /// Move a linked slot to the front.
    pub fn touch(&mut self, slot: usize) {
        if self.head == slot as u32 {
            return;
        }
        self.remove(slot);
        self.push_front(slot);
    }

    /// Pop the least-recently-used slot.
    pub fn pop_back(&mut self) -> Option<usize> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail as usize;
        self.remove(slot);
        Some(slot)
    }
}

/// Slot numbers for the keys an [`LruList`] orders, and the way back from a
/// popped slot to its key: a key takes the most recently released slot, or
/// a new one past the end when none is free.
#[derive(Debug, Clone)]
pub struct SlotKeys<K> {
    keys: Vec<K>,
    free: Vec<u32>,
}

impl<K: Copy> SlotKeys<K> {
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Give `key` a slot.
    pub fn assign(&mut self, key: K) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.keys[slot as usize] = key;
                slot
            }
            None => {
                self.keys.push(key);
                self.keys.len() as u32 - 1
            }
        }
    }

    /// The key `slot` was last assigned to.
    pub fn key(&self, slot: u32) -> K {
        self.keys[slot as usize]
    }

    /// Hand `slot` back for the next [`SlotKeys::assign`].
    pub fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }
}

impl<K: Copy> Default for SlotKeys<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn released_slots_are_reused_before_new_ones() {
        let mut s = SlotKeys::new();
        assert_eq!((s.assign('a'), s.assign('b'), s.assign('c')), (0, 1, 2));
        s.release(0);
        s.release(2);
        assert_eq!(s.assign('d'), 2);
        assert_eq!(s.assign('e'), 0);
        assert_eq!(s.assign('f'), 3);
        assert_eq!([0, 1, 2, 3].map(|slot| s.key(slot)), ['e', 'b', 'd', 'f']);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut l = LruList::new();
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        assert_eq!(l.pop_back(), Some(0));
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), None);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new();
        l.push_front(0);
        l.push_front(1);
        l.push_front(2);
        l.touch(0);
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), Some(0));
    }

    #[test]
    fn remove_middle_keeps_links_consistent() {
        let mut l = LruList::new();
        for s in 0..5 {
            l.push_front(s);
        }
        l.remove(2);
        assert_eq!(l.len(), 4);
        let mut order = Vec::new();
        while let Some(s) = l.pop_back() {
            order.push(s);
        }
        assert_eq!(order, vec![0, 1, 3, 4]);
    }

    #[test]
    fn slots_can_be_relinked_after_removal() {
        let mut l = LruList::new();
        l.push_front(7);
        assert_eq!(l.pop_back(), Some(7));
        l.push_front(7);
        assert_eq!(l.len(), 1);
        assert_eq!(l.pop_back(), Some(7));
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruList::new();
        l.push_front(0);
        l.push_front(1);
        l.touch(1);
        assert_eq!(l.pop_back(), Some(0));
    }
}
