//! Deterministic event queue.
//!
//! A stable monotone radix queue: events pop in time order and, among
//! equal times, in push order, so simulations are fully deterministic
//! for a given seed regardless of event type or payload. The one
//! precondition is that no event is pushed earlier than the last one
//! popped — which every discrete-event loop meets, since a handler at
//! time `now` schedules at `now + delay`.

use crate::time::SimTime;

/// Buckets of an [`EventQueue`]: one for keys equal to the last popped
/// key, plus one per bit of a `u64` tick key.
const BUCKETS: usize = u64::BITS as usize + 1;

/// Bucket of `key` when `last` was the last key popped.
#[inline]
fn bucket_of(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

/// An event queue ordered by `(time, push order)`.
///
/// **Precondition:** every push is at or after the time of the last pop
/// (checked by a `debug_assert!`). A `clear` starts over from time zero.
///
/// Key `k` (the event's [`SimTime::as_ticks`]) lives in bucket
/// `64 - (k ^ last).leading_zeros()`, where `last` is the last popped
/// key: bucket 0 holds keys equal to `last`, and bucket `i > 0` the keys
/// whose highest bit differing from `last` is bit `i - 1`, so every key
/// in a bucket is below every key in a higher one. Pops come off the
/// back of `due`, which holds bucket 0's entries reversed. When `due`
/// runs dry it takes bucket 0 again; when both are empty, the lowest
/// non-empty bucket is emptied in order into the (empty) buckets below
/// it, `last` becoming its smallest key.
///
/// Stable: equal keys always share a bucket, each bucket receives its
/// entries in push order (a push appends; a refill appends a whole
/// bucket's entries, in order, to buckets that were empty), and `due`
/// pops all of one bucket-0 batch, first pushed first, before the next
/// batch. So ties pop in push order without a sequence counter.
///
/// [`peek_time`](Self::peek_time) does not refill: `last` moves only on
/// a pop. A caller that peeks, stops at a bound and then pushes events
/// between that bound and the earliest pending one gets them back first.
///
/// # Examples
///
/// ```
/// use ace_engine::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// q.push(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(1), "early-second");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    /// Events at key `last`, next one last: pops come off the back.
    due: Vec<(SimTime, E)>,
    /// Bucket 0 holds pushes at key `last` made since `due` was filled.
    buckets: [Vec<(SimTime, E)>; BUCKETS],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    mask: u128,
    /// The last popped key; every queued key is `>= last`.
    last: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            due: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mask: 0,
            last: 0,
        }
    }

    /// Schedules `event` at absolute time `time`, which must not be
    /// earlier than the last popped event's.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let key = time.as_ticks();
        debug_assert!(key >= self.last, "event queue pushes must be monotone");
        let b = bucket_of(key, self.last);
        self.buckets[b].push((time, event));
        self.mask |= 1 << b;
    }

    /// Removes and returns the earliest event; among equal times, the
    /// first pushed.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(e) = self.due.pop() {
            return Some(e);
        }
        if self.mask & 1 == 0 {
            if self.mask == 0 {
                return None;
            }
            self.refill();
        }
        self.mask &= !1;
        self.due.extend(self.buckets[0].drain(..).rev());
        self.due.pop()
    }

    /// Moves the lowest non-empty bucket, in order, into the buckets
    /// below it; its smallest key becomes `last` and lands in bucket 0.
    fn refill(&mut self) {
        let EventQueue {
            buckets,
            mask,
            last,
            ..
        } = self;
        let i = mask.trailing_zeros() as usize;
        *mask &= !(1 << i);
        let (lower, rest) = buckets.split_at_mut(i);
        let bucket = &mut rest[0];
        *last = bucket
            .iter()
            .map(|(t, _)| t.as_ticks())
            .min()
            .expect("a masked bucket is non-empty");
        for e in bucket.drain(..) {
            let b = bucket_of(e.0.as_ticks(), *last);
            lower[b].push(e);
            *mask |= 1 << b;
        }
    }

    /// Time of the earliest pending event without removing it. Does not
    /// refill, so it leaves the push precondition where the last pop set
    /// it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.due.is_empty() || self.mask & 1 == 1 {
            return Some(SimTime::from_ticks(self.last));
        }
        // An empty mask names bucket 128, which `get` answers with `None`.
        let lowest = self.buckets.get(self.mask.trailing_zeros() as usize)?;
        lowest.iter().map(|&(t, _)| t).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.due.len() + self.buckets.iter().map(Vec::len).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty() && self.mask == 0
    }

    /// Drops all pending events, keeping the buckets' capacity, and
    /// starts over from time zero.
    pub fn clear(&mut self) {
        self.due.clear();
        while self.mask != 0 {
            self.buckets[self.mask.trailing_zeros() as usize].clear();
            self.mask &= self.mask - 1;
        }
        self.last = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), 'b');
        q.push(SimTime::from_ticks(1), 'a');
        q.push(SimTime::from_ticks(5), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn handlers_can_reschedule() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u32);
        let mut count = 0;
        while let Some((now, gen)) = q.pop() {
            count += 1;
            if gen < 4 {
                q.push(now + 10, gen + 1);
            }
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn clear_and_len() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// A caller that drains up to a bound by peeking, then schedules
    /// between the bound and the earliest pending event, must get its new
    /// event first. A peek that refilled would move the radix base up to
    /// the pending event and file the later push out of order.
    #[test]
    fn peek_time_leaves_the_radix_base_at_the_last_pop() {
        let mut q = EventQueue::new();
        for t in [100u64, 500] {
            q.push(SimTime::from_ticks(t), t);
        }
        let until = SimTime::from_ticks(300);
        let mut seen = Vec::new();
        while let Some(t) = q.peek_time() {
            if t > until {
                break;
            }
            seen.push(q.pop().expect("peeked event").1);
        }
        assert_eq!((seen, q.len()), (vec![100], 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(500)));
        q.push(SimTime::from_ticks(150), 150);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(150)));
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![150, 500]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "monotone")]
    fn a_push_before_the_last_pop_trips_the_monotone_check() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(10), ());
        q.pop();
        q.push(SimTime::from_ticks(9), ());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The queue pops exactly as a `BinaryHeap` keyed by `(time, push
        /// counter)` does, through interleaved pushes and pops with
        /// monotone keys: equal-key runs (at the last pop and at the last
        /// push), gaps of 1–3 ticks, and jumps of log-uniform size up to
        /// 2^40 and over the whole `u64` range, so all 65 buckets fill and
        /// deep refills move runs of ties. Every pop is preceded by a peek
        /// that must name its time. One queue serves every run, cleared
        /// (often while non-empty) in between. The payload is not `Copy`.
        #[test]
        fn pops_in_time_then_push_order(
            ops in proptest::collection::vec((0u8..12, any::<u64>()), 1..600),
        ) {
            let mut queue = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let (mut popped, mut pushed, mut seq) = (0u64, 0u64, 0u32);
            let pop_both = |queue: &mut EventQueue<Box<u32>>, heap: &mut BinaryHeap<_>| {
                let want = heap.pop().map(|Reverse(e)| e);
                prop_assert_eq!(queue.peek_time(), want.map(|(t, _)| SimTime::from_ticks(t)));
                let got = queue.pop().map(|(t, e)| (t.as_ticks(), *e));
                prop_assert_eq!(got, want);
                prop_assert_eq!(queue.len(), heap.len());
                Ok(got)
            };
            for (op, r) in ops {
                match op {
                    0..=3 => {
                        if let Some((t, _)) = pop_both(&mut queue, &mut heap)? {
                            popped = t;
                        }
                    }
                    11 => {
                        queue.clear();
                        heap.clear();
                        (popped, pushed) = (0, 0);
                    }
                    _ => {
                        let key = match op {
                            4 | 5 => popped,
                            6 => pushed.max(popped),
                            7 | 8 => popped.saturating_add(1 + r % 3),
                            // Log-uniform jumps: below 2^0..=2^40, then anywhere.
                            9 => popped.saturating_add((r >> 6) & ((1 << (r % 41)) - 1)),
                            _ => popped.saturating_add(r >> (r % 64)),
                        };
                        seq += 1;
                        pushed = key;
                        heap.push(Reverse((key, seq)));
                        queue.push(SimTime::from_ticks(key), Box::new(seq));
                    }
                }
            }
            while pop_both(&mut queue, &mut heap)?.is_some() {}
        }
    }
}
